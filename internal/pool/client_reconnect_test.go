package pool

import (
	"context"
	"testing"
	"time"

	"hashcore"
	"hashcore/internal/baseline"
)

// blockingMiner is a RangeMiner that never finds a share: it parks until
// its window's context ends. Reconnect tests only care about transport
// behavior, not mining.
type blockingMiner struct{}

func (blockingMiner) MineRange(ctx context.Context, prefix []byte, target [32]byte, workers int, start, maxAttempts uint64) (hashcore.MineResult, error) {
	<-ctx.Done()
	return hashcore.MineResult{}, ctx.Err()
}

func newReconnectServer(t *testing.T, addr string) *Server {
	t.Helper()
	srv, err := NewServer(Config{
		Addr:            addr,
		ShareBits:       zeroBitsCompact(4),
		RefreshInterval: -1,
		VerifyWorkers:   1,
		Logf:            t.Logf,
	}, baseline.SHA256d{}, &stubSource{bits: impossibleCompact})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestClientReconnectSurvivesServerRestart kills the pool daemon under a
// client and restarts it on the same address: the
// client must re-dial with backoff, resubscribe, and receive a job from
// the new server instance instead of dying with the dropped connection.
func TestClientReconnectSurvivesServerRestart(t *testing.T) {
	srv1 := newReconnectServer(t, "127.0.0.1:0")
	addr := srv1.Addr()

	disconnects := make(chan error, 8)
	client, err := Dial(ClientConfig{
		Addr:          addr,
		MinerName:     "phoenix",
		reconnectWait: 20 * time.Millisecond,
		OnDisconnect:  func(err error) { disconnects <- err },
	}, blockingMiner{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan struct{})
	go func() { client.Run(ctx); close(clientDone) }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (stats %+v)", desc, client.Stats())
			}
			select {
			case <-clientDone:
				t.Fatalf("client exited while waiting for %s", desc)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	waitFor("first job", func() bool { return client.Stats().Jobs >= 1 })

	// Kill the daemon. The client's read loop fails; the reconnect loop
	// must report the disconnect and start re-dialing.
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Shutdown(shutdownCtx); err != nil {
		t.Fatal(err)
	}
	shutdownCancel()
	select {
	case <-disconnects:
	case <-clientDone:
		t.Fatal("client died instead of reconnecting")
	case <-time.After(30 * time.Second):
		t.Fatal("no disconnect observed after server shutdown")
	}

	// Restart on the same address: the client must resubscribe and get a
	// fresh job from the new instance.
	srv2 := newReconnectServer(t, addr)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
	}()
	jobsBefore := client.Stats().Jobs
	waitFor("reconnect", func() bool { return client.Stats().Reconnects >= 1 })
	waitFor("post-restart job", func() bool { return client.Stats().Jobs > jobsBefore })

	cancel()
	select {
	case <-clientDone:
	case <-time.After(30 * time.Second):
		t.Fatal("client did not exit on context cancel")
	}
}
