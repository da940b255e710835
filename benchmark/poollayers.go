package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
	"hashcore/internal/wire"
)

// stageSnap is a reading of the pool's own stage histograms. The pool
// records queue wait and verify time per share whether or not anything is
// exported; the difference of two readings describes the windows between.
type stageSnap struct {
	queue               []telemetry.BucketCount
	queueSum, verifySum float64
	verifyN             uint64
}

func (pi *poolInst) snap() stageSnap {
	q := pi.st.srv.Metrics().Histogram("pool_share_queue_wait_seconds", "", telemetry.QueueLatencyBuckets)
	v := pi.st.srv.Metrics().Histogram("pool_share_verify_seconds", "", telemetry.HashLatencyBuckets)
	return stageSnap{q.Buckets(), q.Sum(), v.Sum(), v.Count()}
}

// since returns what s counted that the earlier reading before had not.
func (s stageSnap) since(before stageSnap) stageSnap {
	for i := range s.queue {
		s.queue[i].Count -= before.queue[i].Count
	}
	s.queueSum -= before.queueSum
	s.verifySum -= before.verifySum
	s.verifyN -= before.verifyN
	return s
}

// add folds the difference d into s.
func (s *stageSnap) add(d stageSnap) {
	if s.queue == nil {
		*s = d
		return
	}
	for i := range s.queue {
		s.queue[i].Count += d.queue[i].Count
	}
	s.queueSum += d.queueSum
	s.verifySum += d.verifySum
	s.verifyN += d.verifyN
}

// facts records, for the shares a difference of readings covers, the mean
// and the quantiles of the queue wait and the mean verify time, in µs. The
// layers' histograms are the only place these overlapped stages can be
// observed from outside.
func (s stageSnap) facts(o *outcome) {
	if n := s.queue[len(s.queue)-1].Count; n > 0 {
		o.fact("insitu.queue_wait_mean_us", s.queueSum/float64(n)*1e6)
		o.fact("pool.queue_wait_p50_us", bucketQuantile(s.queue, 0.50)*1e6)
		o.fact("pool.queue_wait_p95_us", bucketQuantile(s.queue, 0.95)*1e6)
	}
	if s.verifyN > 0 {
		o.fact("insitu.verify_mean_us", s.verifySum/float64(s.verifyN)*1e6)
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// layers takes the pool workloads' per-layer measurements: the hash
// budget on the current job's own headers, the node budget on the blocks
// the run solved, the ingest path replayed by hand on a bare stack, and
// the overlapped stages read off the registries the traced run filled.
func (pi *poolInst) layers(o *outcome, tr *tracer) (map[string]float64, error) {
	st, n := pi.st, pi.e.size.replayN
	job := st.srv.Jobs().Current()
	headers := make([][]byte, n)
	for k := range headers {
		headers[k] = binary.LittleEndian.AppendUint64(append([]byte(nil), job.Prefix...), uint64(k))
	}
	layers, mismatches, err := hashBudget(tr, "leela", "native", headers)
	if err != nil {
		return nil, err
	}
	o.attempted += n
	o.fail(mismatches, "decomposed-replay digest differs from Session.Hash")

	var ids []blockchain.Hash
	for _, ah := range st.node.HeadersWithIDs(nil, n) {
		ids = append(ids, ah.ID)
	}
	blocks := st.node.Blocks(ids, n)
	node, err := nodeBudget(tr, chainParams(blockZeroBits), st.hasher, blocks, st.dir, 0)
	if err != nil {
		return nil, err
	}
	for k, v := range node {
		layers[k] = v
	}
	ingest, err := ingestBudget(tr, st.hasher, n)
	if err != nil {
		return nil, err
	}
	for k, v := range ingest {
		layers[k] = v
	}
	// The live server's own refresh-and-broadcast, for the trace file.
	for i := 0; i < 8; i++ {
		s := tr.begin("pool.refresh_now", -1, tr.op())
		err := st.srv.RefreshNow(false)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}

	// In situ.
	reg := st.registry
	fan := reg.Histogram("pool_broadcast_fanout_seconds", "", telemetry.QueueLatencyBuckets)
	layers["pool.fanout_p50_us"] = bucketQuantile(fan.Buckets(), 0.50) * 1e6
	if accepted := regValue(reg, "chain_blocks_accepted_total"); accepted > 0 {
		layers["blockchain.fsyncs_per_block"] = regValue(reg, "chain_store_fsync_seconds") / accepted
		layers["p2p.msgs_per_block"] = regValue(reg, "p2p_messages_total") / accepted
		layers["p2p.bytes_per_block"] = regValue(reg, "p2p_net_bytes_total") / accepted
	}
	for _, k := range []string{"pool.queue_wait_p50_us", "pool.queue_wait_p95_us", "wire.bytes_per_share", "pool.stale_ratio", "pool.junk_hashes", "gen.late_p95_ms",
		"gen.backlog_end", "p2p.block_to_peer_p50_ms", "p2p.block_to_peer_p90_ms"} {
		layers[k] = o.facts[k]
	}
	if p50, ok := o.facts["p2p.block_to_peer_p50_ms"]; ok {
		// What relay costs beyond the peer's own validation of the block.
		layers["p2p.relay_self_ms"] = p50 - layers["blockchain.validate_us_per_block"]/1e3
	}

	// The budget closes if the stages add up to what the client saw.
	var seen []float64
	for _, r := range o.lat {
		seen = append(seen, r...)
	}
	whole := mean(seen)
	parts := layers["wire.parse_ns_per_frame"]/1e3 + layers["pool.admit_accept_ns"]/1e3 +
		o.facts["insitu.queue_wait_mean_us"] + o.facts["insitu.verify_mean_us"] + o.facts["gen.late_mean_us"]
	layers["pool.unattributed_pct"] = 100 * (whole - parts) / whole
	return layers, nil
}

// ingestBudget walks shares through the ingest path by hand on a bare
// stack — frame parse, admission, hand-off to a one-worker verification
// fleet and its reply, ledger write — one span per call, and each share a
// second time for the rejecting side of admission. It also times cutting
// a job off a live chain.
func ingestBudget(tr *tracer, h *hashcore.Hasher, n int) (map[string]float64, error) {
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: chainParams(blockZeroBits), Hasher: h})
	if err != nil {
		return nil, err
	}
	defer node.Close()
	shareBits := pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(0)))
	jm, err := pool.NewJobManager(pool.NewChainSource(node, "budget"), shareBits, 0, 4)
	if err != nil {
		return nil, err
	}
	first := len(tr.spans)
	const refreshes = 32
	var job *pool.Job
	for i := 0; i < refreshes; i++ {
		s := tr.begin("pool.job_refresh", -1, tr.op())
		job, err = jm.Refresh(false)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	acct, ledger, seen := pool.NewAccounting(), pool.NewAccounting(), pool.NewSeenSet(1<<16)
	pre := pool.NewPrecheck(jm, seen, acct, 0, 0)
	pipe := pool.NewPipeline(pool.NewShareValidator(jm, seen, acct, nil), pool.WrapHasher(h), 1, 16)
	defer pipe.Close()

	const miner = "budget-miner"
	verdict := make(chan pool.ShareResult, 1)
	reply := func(r pool.ShareResult) { verdict <- r }
	var verify []float64
	for k := -8; k < n; k++ {
		t := tr
		if k < 0 {
			t = newTracer() // warm the worker's session unrecorded
		}
		nonce := uint64(k + 8)
		line := strconv.AppendUint([]byte(`{"type":"submit","job_id":"`+job.ID+`","nonce":`), nonce, 10)
		line = append(line, '}')

		op := t.op()
		root := t.begin("pool.share", -1, op)
		s := t.begin("wire.parse", root, op)
		_, err := wire.ParseEnvelope(line)
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin("pool.admit", root, op)
		admitted, _, ok := pre.Admit(miner, []byte(job.ID), nonce)
		t.end(s)
		if !ok {
			return nil, fmt.Errorf("fresh share refused at admission")
		}
		s = t.begin("pool.verify", root, op)
		if err := pipe.SubmitAdmitted(context.Background(), miner, admitted, nonce, reply); err != nil {
			return nil, err
		}
		res := <-verdict
		if took := t.end(s); k >= 0 {
			verify = append(verify, float64(took)/1e3)
		}
		if !res.Status.Accepted() {
			return nil, fmt.Errorf("fresh share judged %s", res.Status)
		}
		s = t.begin("pool.account", root, op)
		ledger.Record(miner, res.Status, job.ShareWork)
		t.end(s)
		t.end(root)

		// The same share again: admission must turn it away.
		op = t.op()
		root = t.begin("pool.share_rejected", -1, op)
		s = t.begin("pool.admit_reject", root, op)
		_, _, ok = pre.Admit(miner, []byte(job.ID), nonce)
		t.end(s)
		t.end(root)
		if ok {
			return nil, fmt.Errorf("replayed share passed admission")
		}
	}
	self := tr.selfTimes(first)
	per := func(name string, count int) float64 { return float64(self[name]) / float64(count) }
	return map[string]float64{
		"wire.parse_ns_per_frame": per("wire.parse", n),
		"pool.admit_accept_ns":    per("pool.admit", n),
		"pool.admit_reject_ns":    per("pool.admit_reject", n),
		"pool.verify_p50_us":      median(verify),
		"pool.account_ns":         per("pool.account", n),
		"pool.job_refresh_us":     per("pool.job_refresh", refreshes) / 1e3,
	}, nil
}
