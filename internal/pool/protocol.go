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
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// class that arrives millions of times: submit. It scans the line in
// place and returns job_id as a subslice (valid only until the next
// read) plus the nonce. ok=false means "not provably a simple submit"
// — the caller falls back to parseMsg — so the fast path may only
// accept lines on which it provably agrees with encoding/json: flat
// objects, escape-free strings, plain unsigned integers, last
// duplicate key wins, unknown keys skipped. Anything fancier (nesting,
// escapes, floats, signs, exponents) bails out rather than guess.
// FuzzParseSubmitAgreesWithJSON pins the agreement.
func parseSubmit(line []byte) (jobID []byte, nonce uint64, ok bool) {
	i, n := 0, len(line)
	skipWs := func() {
		for i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r' || line[i] == '\n') {
			i++
		}
	}
	// scanString consumes an escape-free ASCII JSON string, returning
	// its contents. Non-ASCII bytes bail: encoding/json replaces
	// invalid UTF-8 with U+FFFD on decode, which this scanner does not
	// model, so any high byte goes to the slow path.
	scanString := func() ([]byte, bool) {
		if i >= n || line[i] != '"' {
			return nil, false
		}
		i++
		start := i
		for i < n {
			c := line[i]
			if c == '"' {
				s := line[start:i]
				i++
				return s, true
			}
			if c == '\\' || c < 0x20 || c >= 0x80 {
				return nil, false
			}
			i++
		}
		return nil, false
	}
	// scanUint consumes a plain unsigned integer (no sign, fraction or
	// exponent), rejecting overflow and leading zeros the way
	// encoding/json would accept but we don't need to (clients emit
	// canonical integers; anything else takes the slow path).
	scanUint := func() (uint64, bool) {
		start := i
		var v uint64
		for i < n && line[i] >= '0' && line[i] <= '9' {
			d := uint64(line[i] - '0')
			if v > (^uint64(0)-d)/10 {
				return 0, false
			}
			v = v*10 + d
			i++
		}
		if i == start {
			return 0, false
		}
		if i-start > 1 && line[start] == '0' {
			return 0, false
		}
		if i < n && (line[i] == '.' || line[i] == 'e' || line[i] == 'E') {
			return 0, false
		}
		return v, true
	}
	// scanNull consumes a literal null.
	scanNull := func() bool {
		if n-i >= 4 && string(line[i:i+4]) == "null" {
			i += 4
			return true
		}
		return false
	}
	// skipSimpleValue consumes a value we don't care about: an
	// escape-free string, plain integer, true/false/null. Structured
	// values bail.
	skipSimpleValue := func() bool {
		if i >= n {
			return false
		}
		switch line[i] {
		case '"':
			_, sok := scanString()
			return sok
		case 't':
			if n-i >= 4 && string(line[i:i+4]) == "true" {
				i += 4
				return true
			}
		case 'f':
			if n-i >= 5 && string(line[i:i+5]) == "false" {
				i += 5
				return true
			}
		case 'n':
			if n-i >= 4 && string(line[i:i+4]) == "null" {
				i += 4
				return true
			}
		default:
			if line[i] >= '0' && line[i] <= '9' {
				_, uok := scanUint()
				return uok
			}
		}
		return false
	}

	skipWs()
	if i >= n || line[i] != '{' {
		return nil, 0, false
	}
	i++
	isSubmit := false
	first := true
	for {
		skipWs()
		if i < n && line[i] == '}' && first {
			i++
			break
		}
		if !first {
			if i >= n {
				return nil, 0, false
			}
			if line[i] == '}' {
				i++
				break
			}
			if line[i] != ',' {
				return nil, 0, false
			}
			i++
			skipWs()
		}
		first = false
		key, kok := scanString()
		if !kok {
			return nil, 0, false
		}
		// encoding/json matches struct keys case-insensitively; keys are
		// folded below (ASCII-only — scanString already bailed on any
		// high byte, so Unicode folding cannot be in play).
		skipWs()
		if i >= n || line[i] != ':' {
			return nil, 0, false
		}
		i++
		skipWs()
		// Keys that fold onto a known Envelope field must carry a value
		// encoding/json would accept for that field's type, or the
		// whole line bails to the slow path — otherwise the fast path
		// could accept a line json rejects (e.g. a number for a string
		// field).
		switch {
		case asciiEqualFold(key, "type"):
			v, vok := scanString()
			if !vok {
				return nil, 0, false
			}
			isSubmit = string(v) == TypeSubmit
		case asciiEqualFold(key, "job_id"):
			v, vok := scanString()
			if !vok {
				return nil, 0, false
			}
			jobID = v
		case asciiEqualFold(key, "nonce"):
			v, vok := scanUint()
			if !vok {
				return nil, 0, false
			}
			nonce = v
		case asciiEqualFold(key, "bits"):
			// uint32 field: json overflow-errors above MaxUint32.
			if i < n && line[i] == 'n' {
				if !scanNull() {
					return nil, 0, false
				}
			} else if v, vok := scanUint(); !vok || v > 1<<32-1 {
				return nil, 0, false
			}
		case asciiEqualFold(key, "job"):
			// struct-pointer field: of the simple values only null decodes.
			if !scanNull() {
				return nil, 0, false
			}
		case foldsToStringField(key):
			if i < n && line[i] == '"' {
				if _, vok := scanString(); !vok {
					return nil, 0, false
				}
			} else if !scanNull() {
				return nil, 0, false
			}
		default:
			if !skipSimpleValue() {
				return nil, 0, false
			}
		}
	}
	skipWs()
	if i != n || !isSubmit {
		return nil, 0, false
	}
	return jobID, nonce, true
}

// envelopeStringFields lists the Envelope keys backed by plain string
// fields (beyond type and job_id, which parseSubmit handles itself).
var envelopeStringFields = []string{"miner", "agent", "session", "pool", "hasher", "status", "reason", "error"}

// foldsToStringField reports whether key case-folds onto one of the
// Envelope's string fields.
func foldsToStringField(key []byte) bool {
	for _, f := range envelopeStringFields {
		if asciiEqualFold(key, f) {
			return true
		}
	}
	return false
}

// asciiEqualFold reports whether key equals name under ASCII case
// folding. name is lowercase by construction; key was checked ASCII.
func asciiEqualFold(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}
