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

// startPool starts a pool server on addr for node whose share target
// every digest meets, and stops it when the test ends.
func startPool(t *testing.T, addr string, h *hashcore.Hasher, node *blockchain.Node) *pool.Server {
	t.Helper()
	srv, err := pool.NewServer(pool.Config{
		Addr:            addr,
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
	t.Cleanup(func() { stopPool(t, srv) })
	return srv
}

// stopPool shuts srv down; a second call is a no-op.
func stopPool(t *testing.T, srv *pool.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("pool shutdown: %v", err)
	}
}

// openNode opens an in-memory node at an 8-zero-bit genesis target.
func openNode(t *testing.T, h *hashcore.Hasher) *blockchain.Node {
	t.Helper()
	params := blockchain.DefaultParams()
	params.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(8)))
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// waitAccepted waits until srv has accepted a share, failing the test
// if run returns first or the deadline passes.
func waitAccepted(t *testing.T, srv *pool.Server, done <-chan error, out *syncBuffer) {
	t.Helper()
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
}

// stopRun cancels run's context and expects a clean return and the
// summary line.
func stopRun(t *testing.T, cancel context.CancelFunc, done <-chan error, out *syncBuffer) {
	t.Helper()
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

// TestRunMinesForPool points the miner at a real pool server on an
// ephemeral port whose share target every digest meets, waits until the
// server has accepted a share from it, then cancels the context and
// expects a clean return and the summary line.
func TestRunMinesForPool(t *testing.T) {
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}
	srv := startPool(t, "127.0.0.1:0", h, openNode(t, h))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-pool", srv.Addr(), "-name", "w1", "-workers", "1", "-quiet"}, &out)
	}()
	waitAccepted(t, srv, done, &out)
	stopRun(t, cancel, done, &out)
}

// TestRunSurvivesPoolRestart shuts the pool down under a mining run and
// starts a new one on the same address: run must not return, and must
// get a share accepted by the new pool.
func TestRunSurvivesPoolRestart(t *testing.T) {
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}
	node := openNode(t, h)
	srv := startPool(t, "127.0.0.1:0", h, node)
	addr := srv.Addr()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-pool", addr, "-name", "w1", "-workers", "1", "-quiet"}, &out)
	}()
	waitAccepted(t, srv, done, &out)

	stopPool(t, srv)
	restarted := startPool(t, addr, h, node)
	waitAccepted(t, restarted, done, &out)
	if s := out.String(); !strings.Contains(s, "hcminer: lost the pool") {
		t.Errorf("no reconnect line in the output:\n%s", s)
	}
	stopRun(t, cancel, done, &out)
}
