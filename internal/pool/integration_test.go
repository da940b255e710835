package pool

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
)

// TestIntegrationShareOverTCP runs the whole deployment loop at demo
// difficulty: a pool server templated off a real blockchain.Chain, a
// pool client driving the real HashCore miner over a real TCP socket,
// and a share accepted by the session-backed verification pipeline —
// then checks the ledger both in-process and through the HTTP /stats
// endpoint.
func TestIntegrationShareOverTCP(t *testing.T) {
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}

	// Demo difficulty: 4 zero bits for the block (~16 expected hashes),
	// 2 for a share (~4) — widget-backed hashing is ~ms per evaluation.
	params := blockchain.DefaultParams()
	params.GenesisBits = zeroBitsCompact(4)
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		PoolName:        "itest-pool",
		ShareBits:       zeroBitsCompact(2),
		RangeSize:       1 << 20,
		VerifyWorkers:   2,
		QueueDepth:      16,
		RefreshInterval: -1, // only explicit refreshes; keeps the test deterministic
		Logf:            t.Logf,
	}, WrapHasher(h), NewChainSource(node, "itest"))
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
			t.Errorf("shutdown: %v", err)
		}
	}()

	results := make(chan ShareResult, 64)
	client, err := Dial(ClientConfig{
		Addr:      srv.Addr(),
		MinerName: "itest-miner",
		Agent:     "pool_test/1",
		Workers:   2,
		OnResult:  func(r ShareResult) { results <- r },
	}, h)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan struct{})
	go func() { client.Run(ctx); close(clientDone) }()

	// Wait for a share to make the full trip: client mines its window,
	// submits over the socket, a verification worker re-hashes it, the
	// verdict comes back.
	deadline := time.After(120 * time.Second)
	var accepted ShareResult
waitAccept:
	for {
		select {
		case r := <-results:
			if r.Status.Accepted() {
				accepted = r
				break waitAccept
			}
			t.Logf("non-accepted verdict along the way: %s (%s)", r.Status, r.Reason)
		case <-clientDone:
			t.Fatal("client exited early")
		case <-deadline:
			t.Fatal("no accepted share within deadline")
		}
	}
	if accepted.JobID == "" {
		t.Error("accepted verdict missing job ID")
	}
	// The client keeps mining (and OnResult keeps sending) until the
	// context is cancelled at the bottom; keep draining verdicts so the
	// easy share target can never fill the buffer and block the client's
	// read loop mid-teardown.
	stopDrain := make(chan struct{})
	defer close(stopDrain)
	go func() {
		for {
			select {
			case <-results:
			case <-stopDrain:
				return
			}
		}
	}()

	// The ledger must agree with the wire verdict.
	if hr := srv.Accounting().Hashrate("itest-miner"); hr <= 0 {
		t.Errorf("hashrate estimate = %v, want > 0 after an accepted share", hr)
	}

	// And the /stats handler must serve the same picture over HTTP.
	statsSrv := httptest.NewServer(srv.StatsHandler())
	defer statsSrv.Close()
	resp, err := http.Get(statsSrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pool != "itest-pool" {
		t.Errorf("stats pool = %q", stats.Pool)
	}
	if stats.Totals.Accepted < 1 {
		t.Errorf("stats accepted = %d, want >= 1", stats.Totals.Accepted)
	}
	found := false
	for _, m := range stats.Miners {
		if m.Miner == "itest-miner" && m.Accepted >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("miner missing from /stats: %+v", stats.Miners)
	}

	// The registry behind /stats booked the same traffic: at least one
	// share judged (with both stage latencies observed) and the one
	// live miner connection showing on the gauge /stats reads.
	reg := srv.Metrics()
	if v, ok := reg.Value("pool_shares_total"); !ok || v < 1 {
		t.Errorf("pool_shares_total = %v (ok=%v), want >= 1", v, ok)
	}
	if v, _ := reg.Value("pool_share_verify_seconds"); v < 1 {
		t.Errorf("pool_share_verify_seconds observations = %v, want >= 1", v)
	}
	if v, _ := reg.Value("pool_share_queue_wait_seconds"); v < 1 {
		t.Errorf("pool_share_queue_wait_seconds observations = %v, want >= 1", v)
	}
	if v, _ := reg.Value("pool_connections"); v != 1 {
		t.Errorf("pool_connections = %v, want 1", v)
	}
	if stats.Connections != 1 {
		t.Errorf("stats connections = %d, want 1", stats.Connections)
	}

	// Client statistics saw the same accepted share.
	if st := client.Stats(); st.Accepted < 1 || st.Jobs < 1 {
		t.Errorf("client stats = %+v, want >= 1 job and accepted share", st)
	}

	cancel()
	<-clientDone
}

// TestIntegrationBlockSolvedAdvancesChain sets share target == block
// target so the first accepted share solves a block, and checks it lands
// on the chain and produces a clean job at the next height.
func TestIntegrationBlockSolvedAdvancesChain(t *testing.T) {
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}
	params := blockchain.DefaultParams()
	params.GenesisBits = zeroBitsCompact(2) // ~4 expected hashes per block
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	src := NewChainSource(node, "itest-block")

	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       zeroBitsCompact(2),
		VerifyWorkers:   2,
		RefreshInterval: -1,
		Logf:            t.Logf,
	}, WrapHasher(h), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	results := make(chan ShareResult, 64)
	client, err := Dial(ClientConfig{
		Addr:      srv.Addr(),
		MinerName: "blocksmith",
		Workers:   2,
		OnResult:  func(r ShareResult) { results <- r },
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan struct{})
	go func() { client.Run(ctx); close(clientDone) }()

	deadline := time.After(120 * time.Second)
	for srv.Blocks() == 0 {
		select {
		case r := <-results:
			t.Logf("verdict: %s (%s)", r.Status, r.Reason)
		case <-clientDone:
			t.Fatal("client exited early")
		case <-deadline:
			t.Fatal("no block solved within deadline")
		}
	}
	if src.Height() < 1 {
		t.Errorf("chain height = %d, want >= 1 after a solved block", src.Height())
	}
	// Keep draining verdicts until the client has fully stopped, for the
	// same reason as above: in-flight shares racing the cancel must never
	// fill the buffer and wedge the read loop.
	stopDrain := make(chan struct{})
	defer close(stopDrain)
	go func() {
		for {
			select {
			case <-results:
			case <-stopDrain:
				return
			}
		}
	}()
	cancel()
	<-clientDone
}
