package main

// layerMetric names one per-layer metric of the traced run. The list is
// the per_layer section of BENCHMARK.json (the smoke test holds the two
// together); README.md says which end-to-end metric each should move.
// A workload that never enters a layer reports 0 for it.
type layerMetric struct {
	name, unit string
}

var perLayerMetrics = []layerMetric{
	// Hash pipeline, replayed on the workload's own hash inputs.
	{"gate.ns_per_hash", "ns"},
	{"perfprox.gen_ns_per_hash", "ns"},
	{"vm.load_ns_per_hash", "ns"},
	{"jit.compile_ns_per_hash", "ns"},
	{"jit.code_bytes_per_widget", "bytes"},
	{"rng.fill_busy_ns_per_hash", "ns"},
	{"rng.fill_wait_ns_per_hash", "ns"},
	{"vm.exec_ns_per_hash", "ns"},
	{"vm.retired_per_hash", "count"},
	{"vm.fused_per_arch_instr", "ratio"},
	{"vm.effective_mips", "MIPS"},
	{"jit.fallback_ratio", "ratio"},
	{"core.unattributed_pct", "%"},
	{"core.hash_p99_us", "us"},
	{"core.allocs_per_hash", "count"},
	{"core.scaling_efficiency", "ratio"},
	{"pow.minerange_hashes_per_s", "1/s"},
	// Share ingest.
	{"wire.parse_ns_per_frame", "ns"},
	{"wire.bytes_per_share", "bytes"},
	{"pool.admit_accept_ns", "ns"},
	{"pool.admit_reject_ns", "ns"},
	{"pool.queue_wait_p50_us", "us"},
	{"pool.queue_wait_p95_us", "us"},
	{"pool.verify_p50_us", "us"},
	{"pool.account_ns", "ns"},
	{"pool.job_refresh_us", "us"},
	{"pool.fanout_p50_us", "us"},
	{"pool.stale_ratio", "ratio"},
	{"pool.junk_hashes", "count"},
	{"pool.unattributed_pct", "%"},
	{"gen.late_p95_ms", "ms"},
	{"gen.backlog_end", "count"},
	// Node and network.
	{"blockchain.validate_us_per_block", "us"},
	{"blockchain.addblock_us", "us"},
	{"blockchain.store_append_us", "us"},
	{"blockchain.fsyncs_per_block", "ratio"},
	{"blockchain.replay_blocks_per_s", "1/s"},
	{"p2p.msgs_per_block", "count"},
	{"p2p.bytes_per_block", "bytes"},
	{"p2p.block_to_peer_p50_ms", "ms"},
	{"p2p.block_to_peer_p90_ms", "ms"},
	{"p2p.relay_self_ms", "ms"},
	{"p2p.sync_unattributed_pct", "%"},
	{"telemetry.trace_overhead_pct", "%"},
	{"tail.op_p95_us", "us"},
}
