package pool

import "hashcore/internal/telemetry"

// shareClasses enumerates every verdict a share can receive, so all the
// labeled counters exist (at zero) from server construction — scrapes
// and the /stats endpoint never see a class appear mid-flight.
var shareClasses = []ShareStatus{
	StatusAccepted, StatusBlock, StatusStale, StatusDuplicate, StatusLowDiff, StatusInvalid,
}

// precheckReasons enumerates every admission-tier rejection class, for
// the same reason.
var precheckReasons = []string{
	RejectStale, RejectDuplicate, RejectRateLimited, RejectMalformed,
}

// poolMetrics is the server's instrument set. The server always owns a
// registry (a private one when Config.Metrics is nil), so unlike the
// other packages these are never nil in server use; the nil guards exist
// for bare Pipelines and Prechecks built outside a server (tests,
// benchmark/).
type poolMetrics struct {
	shares     map[ShareStatus]*telemetry.Counter
	precheck   map[string]*telemetry.Counter
	queueWait  *telemetry.Histogram
	verify     *telemetry.Histogram
	broadcasts *telemetry.Counter
	fanout     *telemetry.Histogram
	dropped    *telemetry.Counter
	blocks     *telemetry.Counter
}

// registerPoolMetrics resolves the pool_* instruments on reg and hangs
// the scrape-time gauges off the server's live structures. Called after
// the pipeline exists; s.pipe.met is attached by the caller.
func registerPoolMetrics(reg *telemetry.Registry, s *Server) *poolMetrics {
	pm := &poolMetrics{
		shares:   make(map[ShareStatus]*telemetry.Counter, len(shareClasses)),
		precheck: make(map[string]*telemetry.Counter, len(precheckReasons)),
	}
	for _, st := range shareClasses {
		pm.shares[st] = reg.Counter("pool_shares_total",
			"Share verdicts by class.",
			telemetry.Label{Key: "status", Value: string(st)})
	}
	for _, r := range precheckReasons {
		pm.precheck[r] = reg.Counter("pool_precheck_rejects_total",
			"Shares rejected by the admission pre-check tier, before reaching a hashing session.",
			telemetry.Label{Key: "reason", Value: r})
	}
	pm.queueWait = reg.Histogram("pool_share_queue_wait_seconds",
		"Time a share spent queued before a verification worker picked it up.",
		telemetry.QueueLatencyBuckets)
	pm.verify = reg.Histogram("pool_share_verify_seconds",
		"Time a verification worker spent judging one share.",
		telemetry.HashLatencyBuckets)
	pm.broadcasts = reg.Counter("pool_job_broadcasts_total",
		"Job fan-outs to subscribers.")
	pm.fanout = reg.Histogram("pool_broadcast_fanout_seconds",
		"Time from a job broadcast starting until every subscriber notify was written (or its connection condemned).",
		telemetry.QueueLatencyBuckets)
	pm.dropped = reg.Counter("pool_conns_dropped_slow_total",
		"Connections dropped because their outbound queue overflowed (peer not draining).")
	pm.blocks = reg.Counter("pool_blocks_solved_total",
		"Blocks solved by pool shares and accepted upstream.")

	reg.GaugeFunc("pool_connections", "Open miner connections.",
		func() float64 { return float64(s.connCount()) })
	reg.GaugeFunc("pool_verify_queue_depth", "Shares waiting for a verification worker.",
		func() float64 { return float64(s.pipe.QueueDepth()) })
	reg.GaugeFunc("pool_seen_shares", "Entries in the duplicate-share set.",
		func() float64 { return float64(s.seen.Len()) })
	return pm
}
