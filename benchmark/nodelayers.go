package main

import (
	"fmt"
	"path/filepath"

	"hashcore/internal/blockchain"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
)

// nodeBudget replays the workload's own blocks through the node's layers
// by hand, one span per call: Chain.AddBlock (validation alone),
// Node.AddBlock over a FileStore configured as the workload configures it
// (validation, store append and tip event under the node's lock), and
// FileStore.Append with a final Flush (the store alone).
func nodeBudget(tr *tracer, params blockchain.Params, h pow.Hasher, blocks []blockchain.Block, dir string, batchAppends int) (map[string]float64, error) {
	n := float64(len(blocks))
	if n == 0 {
		return nil, fmt.Errorf("node budget needs blocks")
	}
	first := len(tr.spans)
	chain, err := blockchain.NewChain(params, h)
	if err != nil {
		return nil, err
	}
	for _, b := range blocks {
		s := tr.begin("blockchain.validate", -1, tr.op())
		_, err := chain.AddBlock(b)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("Chain.AddBlock: %w", err)
		}
	}

	opts := blockchain.FileStoreOptions{BatchAppends: batchAppends}
	fs, err := blockchain.OpenFileStoreWith(filepath.Join(dir, "budget-node.log"), opts)
	if err != nil {
		return nil, err
	}
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h, Store: fs})
	if err != nil {
		return nil, err
	}
	defer node.Close()
	for _, b := range blocks {
		s := tr.begin("blockchain.addblock", -1, tr.op())
		_, err := node.AddBlock(b)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("Node.AddBlock: %w", err)
		}
	}

	bare, err := blockchain.OpenFileStoreWith(filepath.Join(dir, "budget-store.log"), opts)
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	// Append refuses to run before Load has found the end of the log.
	if err := bare.Load(func(blockchain.Block) error { return nil }); err != nil {
		return nil, err
	}
	op := tr.op()
	root := tr.begin("blockchain.store", -1, op)
	for _, b := range blocks {
		s := tr.begin("blockchain.store_append", root, op)
		err := bare.Append(b)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("FileStore.Append: %w", err)
		}
	}
	s := tr.begin("blockchain.store_flush", root, op)
	err = bare.Flush()
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("FileStore.Flush: %w", err)
	}

	self := tr.selfTimes(first)
	return map[string]float64{
		"blockchain.validate_us_per_block": float64(self["blockchain.validate"]) / n / 1e3,
		"blockchain.addblock_us":           float64(self["blockchain.addblock"]) / n / 1e3,
		"blockchain.store_append_us":       float64(self["blockchain.store_append"]+self["blockchain.store_flush"]) / n / 1e3,
	}, nil
}

// regValue sums the instruments registered under name over all their
// label sets (histograms count their observations); 0 for a nil registry.
func regValue(reg *telemetry.Registry, name string) float64 {
	total, _ := reg.Value(name)
	return total
}

// bucketQuantile reads the q-quantile (0..1) off cumulative histogram
// buckets, interpolating inside the bucket it falls in, as Prometheus
// does. 0 when nothing was observed.
func bucketQuantile(buckets []telemetry.BucketCount, q float64) float64 {
	if len(buckets) == 0 || buckets[len(buckets)-1].Count == 0 {
		return 0
	}
	rank := q * float64(buckets[len(buckets)-1].Count)
	lower, below := 0.0, 0.0
	for i, b := range buckets {
		if float64(b.Count) >= rank {
			if i == len(buckets)-1 {
				return lower // the +Inf bucket has no upper edge
			}
			return lower + (b.Le-lower)*(rank-below)/(float64(b.Count)-below)
		}
		lower, below = b.Le, float64(b.Count)
	}
	return lower
}
