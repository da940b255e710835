// Package pool is a mining-pool service for the HashCore PoW: a job
// manager that builds work templates from a blockchain tip and fans them
// out with per-subscriber nonce ranges, a share-verification pipeline
// running a bounded pool of hashing sessions, per-miner accounting, and a
// newline-delimited JSON-over-TCP protocol (a stratum-like dialect), and
// a JSON stats handler that hcpoold serves at /stats on its debug
// address. The client half subscribes to a pool server and drives a
// miner over its assigned nonce window.
//
// This is the deployment shape the paper assumes: many small
// general-purpose machines coordinating through a pool, with server-side
// share verification — one full hash evaluation per share — as the
// throughput bottleneck. The verification pipeline therefore reuses the
// zero-allocation session architecture (DESIGN.md §3): each verification
// worker holds a private hashing session for its whole lifetime.
package pool

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"hashcore/internal/wire"
)

// Protocol message types. Every wire message is one JSON object on one
// line ("\n"-terminated), carrying a "type" field that selects which of
// the Envelope's sections is populated.
const (
	// TypeSubscribe registers a miner on the connection (client → server).
	TypeSubscribe = "subscribe"
	// TypeSubscribed acknowledges a subscription (server → client).
	TypeSubscribed = "subscribed"
	// TypeNotify announces a job with the subscriber's assigned nonce
	// range (server → client).
	TypeNotify = "notify"
	// TypeSetTarget announces a new pool share target that applies to all
	// subsequent jobs (server → client).
	TypeSetTarget = "set_target"
	// TypeSubmit submits a share (client → server).
	TypeSubmit = "submit"
	// TypeResult reports a share verdict (server → client).
	TypeResult = "result"
	// TypeError reports a protocol-level error (server → client).
	TypeError = "error"
)

// ShareStatus classifies a submitted share.
type ShareStatus string

const (
	// StatusAccepted: the share met the pool share target.
	StatusAccepted ShareStatus = "accepted"
	// StatusBlock: the share additionally met the network block target and
	// solved a block. Counted as accepted in miner statistics.
	StatusBlock ShareStatus = "block"
	// StatusStale: the share references a job the pool no longer accepts
	// (expired, or invalidated by a new chain tip).
	StatusStale ShareStatus = "stale"
	// StatusDuplicate: the (job, nonce) pair was already submitted.
	StatusDuplicate ShareStatus = "duplicate"
	// StatusLowDiff: the digest does not meet the pool share target.
	StatusLowDiff ShareStatus = "low_diff"
	// StatusInvalid: the submission was malformed or hashing failed.
	StatusInvalid ShareStatus = "invalid"
)

// Accepted reports whether the status credits the miner with work.
func (s ShareStatus) Accepted() bool {
	return s == StatusAccepted || s == StatusBlock
}

// JobNotify is the job description a notify message carries. The nonce
// range is this subscriber's slice of the search space — advisory work
// splitting, not an admission rule: the server verifies any nonce, and
// ranges exist so honest subscribers do not duplicate each other's work.
type JobNotify struct {
	// ID names the job in submits. IDs are never reused within a server
	// lifetime.
	ID string `json:"id"`
	// Prefix is the hex-encoded serialized block header minus its trailing
	// 8-byte nonce; hashing input is prefix || nonce_le64.
	Prefix string `json:"prefix"`
	// ShareBits is the compact pool share target for this job.
	ShareBits uint32 `json:"share_bits"`
	// BlockBits is the compact network target the block itself needs.
	BlockBits uint32 `json:"block_bits"`
	// NonceStart and NonceEnd delimit the subscriber's assigned window
	// [NonceStart, NonceEnd).
	NonceStart uint64 `json:"nonce_start"`
	NonceEnd   uint64 `json:"nonce_end"`
	// Height is the chain height the job's block would occupy.
	Height int `json:"height"`
	// Clean tells the subscriber to abandon earlier jobs: their shares
	// will be judged stale (the chain tip moved).
	Clean bool `json:"clean"`
}

// Envelope is the wire representation of every protocol message. Unused
// sections are omitted from the encoding.
type Envelope struct {
	Type string `json:"type"`

	// subscribe
	Miner string `json:"miner,omitempty"`
	Agent string `json:"agent,omitempty"`

	// subscribed
	Session string `json:"session,omitempty"`
	Pool    string `json:"pool,omitempty"`
	Hasher  string `json:"hasher,omitempty"`

	// notify
	Job *JobNotify `json:"job,omitempty"`

	// set_target
	Bits uint32 `json:"bits,omitempty"`

	// submit / result. Nonce is deliberately not omitempty: nonce 0 is a
	// legal share.
	JobID  string      `json:"job_id,omitempty"`
	Nonce  uint64      `json:"nonce"`
	Status ShareStatus `json:"status,omitempty"`
	Reason string      `json:"reason,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}

// MaxLineBytes bounds one protocol line. Headers are ~100 bytes hex, so
// the wire layer's default is generous; it exists to stop a misbehaving
// peer from ballooning the read buffer.
const MaxLineBytes = wire.DefaultMaxLine

// ErrLineTooLong is returned when a peer sends an oversized line.
var ErrLineTooLong = wire.ErrLineTooLong

// connConfig is the framing configuration both halves of the pool
// protocol hand to the shared wire layer.
func connConfig(writeTimeout time.Duration) wire.ConnConfig {
	return wire.ConnConfig{MaxLine: MaxLineBytes, WriteTimeout: writeTimeout}
}

// writeMsg encodes env as one NDJSON line to w — the raw-socket shape
// tests drive the protocol with. Production paths write through the
// shared wire.Conn (locked writes, deadlines) instead.
func writeMsg(w io.Writer, env *Envelope) error {
	return json.NewEncoder(w).Encode(env)
}

// parseMsg decodes one NDJSON line into an Envelope. The line comes from
// the wire layer's framed reader; a decode error poisons only the
// offending line.
func parseMsg(line []byte) (Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Envelope{}, fmt.Errorf("pool: malformed message: %w", err)
	}
	if env.Type == "" {
		return Envelope{}, errors.New("pool: message missing type")
	}
	return env, nil
}

// parseSubmit is the zero-allocation decode path for the one message
// class that arrives millions of times: submit. It matches only the
// line encoding/json writes for Envelope{Type: TypeSubmit, JobID,
// Nonce}, which is what every submit writer sends:
//
//	{"type":"submit","job_id":"<id>","nonce":<n>}
//
// with an escape-free ASCII id and a plain decimal nonce that fits in
// 64 bits. It returns job_id as a subslice of line (valid only until
// the next read) and the nonce. Any other spelling (reordered,
// case-folded, unknown or duplicate keys, whitespace, escapes, high
// bytes, signs, fractions, leading zeros) returns ok=false, and the
// caller hands the line to parseMsg, whose encoding/json decode gives
// the verdict. FuzzParseSubmitAgreesWithJSON pins the agreement.
func parseSubmit(line []byte) (jobID []byte, nonce uint64, ok bool) {
	const head, mid = `{"type":"submit","job_id":"`, `","nonce":`
	if len(line) < len(head) || string(line[:len(head)]) != head {
		return nil, 0, false
	}
	rest := line[len(head):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return nil, 0, false
	}
	jobID, rest = rest[:end], rest[end:]
	for _, c := range jobID {
		// encoding/json replaces invalid UTF-8 with U+FFFD, which a
		// subslice cannot, so any high byte goes to the slow path.
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, 0, false
		}
	}
	if len(rest) < len(mid)+2 || string(rest[:len(mid)]) != mid || rest[len(rest)-1] != '}' {
		return nil, 0, false
	}
	digits := rest[len(mid) : len(rest)-1]
	if len(digits) > 1 && digits[0] == '0' {
		return nil, 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return nil, 0, false
		}
		d := uint64(c - '0')
		if nonce > (math.MaxUint64-d)/10 {
			return nil, 0, false
		}
		nonce = nonce*10 + d
	}
	return jobID, nonce, true
}
