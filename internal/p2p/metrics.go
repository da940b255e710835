package p2p

import (
	"hashcore/internal/telemetry"
	"hashcore/internal/wire"
)

// p2pMetrics is the manager's instrument set, resolved once in New.
// Without a registry every instrument is nil, and a nil instrument
// no-ops, so call sites stay unconditional.
type p2pMetrics struct {
	msgsIn  map[string]*telemetry.Counter
	msgsOut map[string]*telemetry.Counter
	otherIn *telemetry.Counter

	handshakeFailures *telemetry.Counter
	rateLimitDrops    *telemetry.Counter
	bans              *telemetry.Counter
	penaltyPoints     *telemetry.Counter
	syncRounds        *telemetry.Counter
	headersFetched    *telemetry.Counter
	blocksFetched     *telemetry.Counter
}

// knownTypes are the protocol messages that get their own labeled
// counter; anything else lands in type="other" (inbound only — we never
// send unknown types).
var knownTypes = []string{TypeInv, TypeGetHeaders, TypeHeaders, TypeGetBlocks, TypeBlocks}

// registerP2PMetrics resolves every p2p_* instrument and hangs the
// scrape-time gauges (peer counts by direction) and byte/frame
// CounterFuncs (over the manager's shared wire tally) off m.
func registerP2PMetrics(reg *telemetry.Registry, m *Manager) *p2pMetrics {
	pm := &p2pMetrics{
		msgsIn:  make(map[string]*telemetry.Counter, len(knownTypes)),
		msgsOut: make(map[string]*telemetry.Counter, len(knownTypes)),
	}
	const msgsName = "p2p_messages_total"
	const msgsHelp = "Protocol messages by direction and type."
	for _, typ := range knownTypes {
		pm.msgsIn[typ] = reg.Counter(msgsName, msgsHelp,
			telemetry.Label{Key: "dir", Value: "in"}, telemetry.Label{Key: "type", Value: typ})
		pm.msgsOut[typ] = reg.Counter(msgsName, msgsHelp,
			telemetry.Label{Key: "dir", Value: "out"}, telemetry.Label{Key: "type", Value: typ})
	}
	pm.otherIn = reg.Counter(msgsName, msgsHelp,
		telemetry.Label{Key: "dir", Value: "in"}, telemetry.Label{Key: "type", Value: "other"})

	pm.handshakeFailures = reg.Counter("p2p_handshake_failures_total",
		"Sessions that died during or failed the hello exchange.")
	pm.rateLimitDrops = reg.Counter("p2p_ratelimit_disconnects_total",
		"Sessions ended because the peer exceeded the inbound message rate.")
	pm.bans = reg.Counter("p2p_bans_total",
		"Hosts banned for crossing the misbehavior threshold.")
	pm.penaltyPoints = reg.Counter("p2p_misbehavior_points_total",
		"Misbehavior points awarded across all hosts.")
	pm.syncRounds = reg.Counter("p2p_sync_rounds_total",
		"Header-first sync rounds started (fresh or timeout-restarted).")
	pm.headersFetched = reg.Counter("p2p_sync_headers_total",
		"Headers received from peers during sync.")
	pm.blocksFetched = reg.Counter("p2p_sync_blocks_total",
		"Blocks fetched from peers and connected during sync.")

	reg.GaugeFunc("p2p_peers", "Live handshaken sessions by direction.",
		func() float64 { return float64(m.countPeers(true)) },
		telemetry.Label{Key: "dir", Value: "inbound"})
	reg.GaugeFunc("p2p_peers", "Live handshaken sessions by direction.",
		func() float64 { return float64(m.countPeers(false)) },
		telemetry.Label{Key: "dir", Value: "outbound"})

	for _, d := range []struct {
		dir  string
		get  func(wire.ConnStats) uint64
		name string
		help string
	}{
		{"in", func(s wire.ConnStats) uint64 { return s.BytesIn }, "p2p_net_bytes_total", "Raw bytes moved over peer sockets."},
		{"out", func(s wire.ConnStats) uint64 { return s.BytesOut }, "p2p_net_bytes_total", "Raw bytes moved over peer sockets."},
		{"in", func(s wire.ConnStats) uint64 { return s.FramesIn }, "p2p_net_frames_total", "NDJSON frames moved over peer sockets."},
		{"out", func(s wire.ConnStats) uint64 { return s.FramesOut }, "p2p_net_frames_total", "NDJSON frames moved over peer sockets."},
	} {
		get := d.get
		reg.CounterFunc(d.name, d.help,
			func() float64 { return float64(get(m.tally.Snapshot())) },
			telemetry.Label{Key: "dir", Value: d.dir})
	}
	return pm
}

// msgIn counts one inbound message, an unknown type as "other".
func (pm *p2pMetrics) msgIn(typ string) {
	if c, ok := pm.msgsIn[typ]; ok {
		c.Inc()
		return
	}
	pm.otherIn.Inc()
}
