package p2p

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"hashcore/internal/blockchain"
	"hashcore/internal/wire"
)

// syncState is the peer's download state machine. At most one request
// (a header page or a body batch) is outstanding per peer at a time;
// the bounded in-flight window is the batch itself.
//
//	idle ──trigger──▶ headers ──unknown ids──▶ blocks ─┐
//	  ▲                  │  ▲                     │    │
//	  │             empty page                 batch   │
//	  │                  │  └────full page───────┘     │
//	  └──────────────────┴──────(queue drained)────────┘
type syncState int

const (
	syncIdle    syncState = iota
	syncHeaders           // getheaders outstanding
	syncBlocks            // getblocks outstanding
)

// peer is one handshaken session: the protocol handlers (serving side)
// plus the header-first sync engine (requesting side). Handlers run on
// the session's read goroutine; the sync timeout timer and the
// manager's announce loop touch the peer from their own goroutines, so
// all sync state lives behind p.mu.
type peer struct {
	m       *Manager
	wp      *wire.Peer
	name    string
	host    string // score/ban key: name without the port
	inbound bool

	mu     sync.Mutex
	state  syncState
	reqGen int // generation of the outstanding request; stale timeouts no-op
	// unsolicited counts response frames that matched no outstanding
	// request. A small allowance absorbs benign timeout races; past it
	// the peer is feeding us responses we never asked for.
	unsolicited int

	// Body download queue, in header (ascending height) order.
	want    []blockchain.Hash
	wantSet map[blockchain.Hash]struct{}
	// anchor is the last id of the previous (full) header page: the next
	// getheaders locator leads with it so the walk advances even though
	// our own chain hasn't connected those blocks yet.
	anchor    *blockchain.Hash
	morePages bool
	// retrigger latches a sync request that arrived mid-round (an inv
	// for a tip we will not necessarily see in the pages already being
	// walked): when the current round drains to idle, one more round
	// starts instead, so announcements are never lost to timing.
	retrigger bool
	closed    bool
	// timeout guards the outstanding request; superseded timers are
	// stopped eagerly so a long sync doesn't accumulate pending timers.
	timeout *time.Timer
}

// maxWantQueue bounds the body-download queue one peer may accumulate
// from header pages, so an adversary advertising an endless header
// chain cannot grow per-peer state without bound. A truncated queue
// latches a retrigger: sync resumes where it stopped once the queued
// bodies drain.
const maxWantQueue = 4096

// unsolicitedAllowance is how many request-less response frames a peer
// may send before it earns PointsUnsolicited per extra frame. Benign
// races (a response landing just after its timeout reset the engine)
// spend from the same allowance, so it is a few frames deep.
const unsolicitedAllowance = 8

func newPeer(m *Manager, wp *wire.Peer, name string, inbound bool) *peer {
	return &peer{
		m:       m,
		wp:      wp,
		name:    name,
		host:    hostOf(name),
		inbound: inbound,
		wantSet: make(map[blockchain.Hash]struct{}),
	}
}

// shutdown marks the peer dead so late timers stop retriggering sync.
func (p *peer) shutdown() {
	p.mu.Lock()
	p.closed = true
	p.reqGen++
	if p.timeout != nil {
		p.timeout.Stop()
	}
	p.mu.Unlock()
}

// sendInv announces a tip, best-effort (a failed write ends the session
// through the read loop soon enough).
func (p *peer) sendInv(inv InvMsg) {
	_ = p.send(TypeInv, inv)
}

// send is the peer's single outbound seam: every protocol write goes
// through it so the per-type message counters see each frame.
func (p *peer) send(typ string, v any) error {
	p.m.met.msgsOut[typ].Inc()
	return p.wp.Send(typ, v)
}

// handle dispatches one protocol message. Returning an error drops the
// peer (wire.Peer.Run exits): that is the right response to malformed
// payloads and invalid blocks, and the outbound dialer's backoff makes
// it cheap to be strict.
func (p *peer) handle(env wire.Envelope) error {
	p.m.met.msgIn(env.Type)
	switch env.Type {
	case TypeInv:
		var msg InvMsg
		if err := env.Decode(&msg); err != nil {
			return err
		}
		return p.handleInv(msg)
	case TypeGetHeaders:
		var msg GetHeadersMsg
		if err := env.Decode(&msg); err != nil {
			return err
		}
		return p.handleGetHeaders(msg)
	case TypeHeaders:
		var msg HeadersMsg
		if err := env.Decode(&msg); err != nil {
			return err
		}
		return p.handleHeaders(msg)
	case TypeGetBlocks:
		var msg GetBlocksMsg
		if err := env.Decode(&msg); err != nil {
			return err
		}
		return p.handleGetBlocks(msg)
	case TypeBlocks:
		var msg BlocksMsg
		if err := env.Decode(&msg); err != nil {
			return err
		}
		return p.handleBlocks(msg)
	default:
		// Unknown types are ignored for forward compatibility.
		return nil
	}
}

// ---- serving side -------------------------------------------------

// handleInv reacts to a tip announcement: nothing if we already have
// the block, otherwise start (or let finish) a sync round.
func (p *peer) handleInv(msg InvMsg) error {
	tip, err := hexToHash(msg.Tip)
	if err != nil {
		return violation(PointsMalformed, "p2p: inv with bad tip: %w", err)
	}
	if p.m.node.HasBlock(tip) {
		return nil
	}
	p.triggerSync()
	return nil
}

// handleGetHeaders serves a header page after the locator's fork point.
func (p *peer) handleGetHeaders(msg GetHeadersMsg) error {
	if len(msg.Locator) > MaxLocatorLen {
		return violation(PointsMalformed, "p2p: locator of %d entries (max %d)", len(msg.Locator), MaxLocatorLen)
	}
	locator := make([]blockchain.Hash, 0, len(msg.Locator))
	for _, s := range msg.Locator {
		h, err := hexToHash(s)
		if err != nil {
			return violation(PointsMalformed, "p2p: getheaders locator: %w", err)
		}
		locator = append(locator, h)
	}
	max := msg.Max
	if max <= 0 || max > MaxHeadersPerMsg {
		max = MaxHeadersPerMsg
	}
	page := p.m.node.HeadersWithIDs(locator, max)
	reply := HeadersMsg{Headers: make([]HeaderRef, len(page))}
	for i, ah := range page {
		reply.Headers[i] = HeaderRef{
			ID:     hashToHex(ah.ID),
			Header: hex.EncodeToString(ah.Header.Marshal()),
		}
	}
	return p.send(TypeHeaders, reply)
}

// handleGetBlocks serves full blocks by id, bounded by count and bytes.
func (p *peer) handleGetBlocks(msg GetBlocksMsg) error {
	if len(msg.Hashes) > MaxBlocksPerMsg {
		return violation(PointsMalformed, "p2p: getblocks for %d blocks (max %d)", len(msg.Hashes), MaxBlocksPerMsg)
	}
	hashes := make([]blockchain.Hash, 0, len(msg.Hashes))
	for _, s := range msg.Hashes {
		h, err := hexToHash(s)
		if err != nil {
			return violation(PointsMalformed, "p2p: getblocks hash: %w", err)
		}
		hashes = append(hashes, h)
	}
	blocks := p.m.node.Blocks(hashes, MaxBlocksPerMsg)
	reply := BlocksMsg{}
	total := 0
	for _, b := range blocks {
		raw := blockchain.MarshalBlock(b)
		if total += len(raw); total > MaxBlocksBytes && len(reply.Blocks) > 0 {
			break // response full; the requester will re-request the rest
		}
		reply.Blocks = append(reply.Blocks, hex.EncodeToString(raw))
	}
	return p.send(TypeBlocks, reply)
}

// ---- requesting side (the sync engine) ----------------------------

// triggerSync starts a sync round, or latches one to run as soon as the
// round already in flight drains.
func (p *peer) triggerSync() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if p.state != syncIdle {
		p.retrigger = true
		p.mu.Unlock()
		return
	}
	p.m.met.syncRounds.Inc()
	err := p.requestHeadersLocked()
	p.mu.Unlock()
	if err != nil {
		// The write failed; the read loop will notice the dead
		// connection. Nothing to do here.
		return
	}
}

// requestHeadersLocked sends the next getheaders. Caller holds p.mu.
func (p *peer) requestHeadersLocked() error {
	locator := p.m.node.Locator()
	msg := GetHeadersMsg{Max: p.m.cfg.headersPerPage}
	if p.anchor != nil {
		msg.Locator = append(msg.Locator, hashToHex(*p.anchor))
	}
	for _, h := range locator {
		msg.Locator = append(msg.Locator, hashToHex(h))
	}
	p.state = syncHeaders
	p.armTimeoutLocked()
	return p.send(TypeGetHeaders, msg)
}

// requestBlocksLocked sends the next body batch from the want queue.
// Caller holds p.mu.
func (p *peer) requestBlocksLocked() error {
	n := p.m.cfg.blocksPerBatch
	if n > len(p.want) {
		n = len(p.want)
	}
	batch := p.want[:n]
	msg := GetBlocksMsg{Hashes: make([]string, n)}
	for i, h := range batch {
		msg.Hashes[i] = hashToHex(h)
	}
	p.state = syncBlocks
	p.armTimeoutLocked()
	return p.send(TypeGetBlocks, msg)
}

// advanceLocked moves the state machine after a response: bodies first,
// then further header pages, then idle. Caller holds p.mu.
func (p *peer) advanceLocked() error {
	switch {
	case len(p.want) > 0:
		return p.requestBlocksLocked()
	case p.morePages:
		return p.requestHeadersLocked()
	case p.retrigger:
		p.retrigger = false
		p.anchor = nil
		p.m.met.syncRounds.Inc()
		return p.requestHeadersLocked()
	default:
		p.state = syncIdle
		p.anchor = nil
		p.reqGen++ // disarm a timeout that already fired but hasn't run
		if p.timeout != nil {
			p.timeout.Stop()
		}
		return nil
	}
}

// handleHeaders consumes a header page: queue the ids we lack, then
// advance to body download (or the next page).
func (p *peer) handleHeaders(msg HeadersMsg) error {
	if len(msg.Headers) > MaxHeadersPerMsg {
		return violation(PointsMalformed, "p2p: headers page of %d entries (max %d)", len(msg.Headers), MaxHeadersPerMsg)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != syncHeaders {
		return p.unsolicitedLocked("headers")
	}
	p.m.met.headersFetched.Add(uint64(len(msg.Headers)))
	truncated := false
	for _, ref := range msg.Headers {
		id, err := hexToHash(ref.ID)
		if err != nil {
			return violation(PointsMalformed, "p2p: headers entry: %w", err)
		}
		raw, err := hex.DecodeString(ref.Header)
		if err != nil {
			return violation(PointsMalformed, "p2p: headers entry: %w", err)
		}
		if _, err := blockchain.UnmarshalHeader(raw); err != nil {
			return violation(PointsMalformed, "p2p: headers entry: %w", err)
		}
		if p.m.node.HasBlock(id) {
			continue
		}
		if _, queued := p.wantSet[id]; queued {
			continue
		}
		if len(p.want) >= maxWantQueue {
			// A header flood stops here: drain what is queued, then
			// resume the walk via the retrigger instead of growing
			// without bound.
			truncated = true
			break
		}
		p.wantSet[id] = struct{}{}
		p.want = append(p.want, id)
	}
	p.morePages = len(msg.Headers) == p.m.cfg.headersPerPage && !truncated
	if truncated {
		p.retrigger = true
	}
	if p.morePages {
		last, err := hexToHash(msg.Headers[len(msg.Headers)-1].ID)
		if err != nil {
			return violation(PointsMalformed, "p2p: headers entry: %w", err)
		}
		p.anchor = &last
	} else {
		p.anchor = nil
	}
	return p.advanceLocked()
}

// unsolicitedLocked charges one response frame that matched no
// outstanding request against the peer's allowance. Caller holds p.mu.
func (p *peer) unsolicitedLocked(kind string) error {
	p.unsolicited++
	if p.unsolicited <= unsolicitedAllowance {
		return nil // benign: responses race timeouts all the time
	}
	return violation(PointsUnsolicited, "p2p: peer %s sent %d unsolicited responses (last: %s)",
		p.name, p.unsolicited, kind)
}

// handleBlocks consumes a body batch: feed every block through
// consensus (duplicates and orphans are expected during concurrent
// sync), then advance. An invalid block drops the peer.
func (p *peer) handleBlocks(msg BlocksMsg) error {
	if len(msg.Blocks) > MaxBlocksPerMsg {
		return violation(PointsMalformed, "p2p: blocks response of %d entries (max %d)", len(msg.Blocks), MaxBlocksPerMsg)
	}
	// Enforce the server-side byte discipline on the requesting side
	// too: an honest server stops filling past MaxBlocksBytes (only the
	// first block may overshoot), so a response that keeps going is a
	// peer trying to stuff bytes past what we asked for.
	total := 0
	for i, s := range msg.Blocks {
		if total += len(s) / 2; i > 0 && total > MaxBlocksBytes {
			return violation(PointsMalformed, "p2p: blocks response of %d+ bytes (cap %d)", total, MaxBlocksBytes)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != syncBlocks {
		return p.unsolicitedLocked("blocks")
	}
	n := p.m.cfg.blocksPerBatch
	if n > len(p.want) {
		n = len(p.want)
	}
	batch := p.want[:n]
	rest := p.want[n:]

	parked := 0
	for _, s := range msg.Blocks {
		raw, err := hex.DecodeString(s)
		if err != nil {
			return violation(PointsMalformed, "p2p: blocks entry: %w", err)
		}
		b, err := blockchain.UnmarshalBlock(raw)
		if err != nil {
			return violation(PointsMalformed, "p2p: blocks entry: %w", err)
		}
		if _, err := p.m.node.AddBlockFrom(b, p.host); err != nil {
			if errors.Is(err, blockchain.ErrOrphan) {
				parked++
				continue // out-of-order arrival; connects when the parent lands
			}
			if errors.Is(err, blockchain.ErrDuplicate) {
				continue // raced with another peer
			}
			return violation(PointsInvalidBlock, "p2p: peer %s sent invalid block: %w", p.name, err)
		}
		p.m.met.blocksFetched.Inc()
	}

	// Settle the batch by post-state, not by response position: the
	// server may truncate the tail (byte cap) or skip ids it cannot
	// serve anywhere in the response. Whatever is now connected is
	// done; the remainder is requeued for re-request — unless this
	// response connected nothing at all, in which case the ids are
	// dropped (the server cannot serve them; requeueing would loop
	// forever). A re-fetched block that parked as an orphan counts as
	// not connected and retries until its parent lands.
	var remaining []blockchain.Hash
	progress := false
	for _, id := range batch {
		if p.m.node.HasBlock(id) {
			delete(p.wantSet, id)
			progress = true
		} else {
			remaining = append(remaining, id)
		}
	}
	if !progress {
		for _, id := range remaining {
			delete(p.wantSet, id)
		}
		remaining = nil
	}
	p.want = append(remaining, rest...)
	// A full round that connected nothing and only parked orphans is
	// the parent-withholding shape: the peer advertises a chain and
	// serves its bodies, but never the ancestors that would connect
	// them. Score it; a peer doing this repeatedly gets banned.
	if !progress && parked > 0 {
		if p.m.penalize(p.host, PointsUnconnectable, fmt.Sprintf("p2p: peer %s served %d unconnectable blocks", p.name, parked)) {
			return violation(0, "p2p: peer %s banned for unconnectable blocks", p.name)
		}
	}
	return p.advanceLocked()
}

// armTimeoutLocked guards the outstanding request: if the response
// never arrives, reset the engine and start over. Caller holds p.mu
// and has just set the new state.
func (p *peer) armTimeoutLocked() {
	p.reqGen++
	gen := p.reqGen
	if p.timeout != nil {
		p.timeout.Stop() // superseded; the gen check also covers a lost race
	}
	p.timeout = time.AfterFunc(p.m.cfg.SyncTimeout, func() {
		p.mu.Lock()
		if p.closed || p.reqGen != gen || p.state == syncIdle {
			p.mu.Unlock()
			return
		}
		p.m.cfg.Logf("p2p: peer %s sync request timed out; restarting sync", p.name)
		p.m.penalize(p.host, PointsSyncTimeout, "sync request timed out")
		p.state = syncIdle
		p.want = nil
		p.wantSet = make(map[blockchain.Hash]struct{})
		p.anchor = nil
		p.morePages = false
		p.retrigger = false
		p.m.met.syncRounds.Inc()
		err := p.requestHeadersLocked()
		p.mu.Unlock()
		_ = err
	})
}
