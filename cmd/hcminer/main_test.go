package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
)

// syncBuffer is an output run may write while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunMinesForPool points the miner at a real pool server on an
// ephemeral port whose share target every digest meets, waits until the
// server has accepted a share from it, then cancels the context and
// expects a clean return and the summary line.
func TestRunMinesForPool(t *testing.T) {
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}
	params := blockchain.DefaultParams()
	params.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(8)))
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := pool.NewServer(pool.Config{
		Addr:            "127.0.0.1:0",
		PoolName:        "hcminer-test",
		ShareBits:       pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(0))),
		VerifyWorkers:   1,
		RefreshInterval: -1,
	}, pool.WrapHasher(h), pool.NewChainSource(node, "hcminer-test"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("pool shutdown: %v", err)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-pool", srv.Addr(), "-name", "w1", "-workers", "1", "-quiet"}, &out)
	}()

	deadline := time.After(60 * time.Second)
	for srv.Accounting().Totals().Accepted == 0 {
		select {
		case err := <-done:
			t.Fatalf("run returned before a share was accepted: %v\n%s", err, out.String())
		case <-deadline:
			t.Fatalf("no share accepted within the deadline:\n%s", out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if s := out.String(); !strings.Contains(s, "hcminer: done — ") {
		t.Errorf("no summary line in the output:\n%s", s)
	}
}
