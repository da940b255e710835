package p2p

import (
	"context"
	"testing"
	"time"

	"hashcore/internal/blockchain"
	"hashcore/internal/telemetry"
)

// newMeteredManager is newManager with a registry and journal attached,
// so tests can assert on the p2p_* instruments of a live session.
func newMeteredManager(t *testing.T, node *blockchain.Node) (*Manager, *telemetry.Registry, *telemetry.Journal) {
	t.Helper()
	reg := telemetry.NewRegistry()
	j := telemetry.NewJournal(128)
	m, err := New(Config{
		Node:           node,
		ListenAddr:     "127.0.0.1:0",
		PingInterval:   50 * time.Millisecond,
		SyncTimeout:    5 * time.Second,
		headersPerPage: 8,
		blocksPerBatch: 4,
		ReconnectWait:  50 * time.Millisecond,
		Logf:           t.Logf,
		Metrics:        reg,
		Journal:        j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	return m, reg, j
}

// TestSyncMetricsAndJournal cold-syncs a metered node from a source and
// checks that the sync counters, message counters, byte tallies, peer
// gauges and journal events all reflect the session.
func TestSyncMetricsAndJournal(t *testing.T) {
	source := newNode(t)
	mineBlocks(t, source, 12, 'm')
	ms := newManager(t, source)

	fresh := newNode(t)
	mf, reg, j := newMeteredManager(t, fresh)
	mf.Connect(ms.Addr())

	waitFor(t, "metered cold sync", func() bool { return fresh.TipID() == source.TipID() })

	mustAtLeast := func(name string, min float64) {
		t.Helper()
		got, ok := reg.Value(name)
		if !ok || got < min {
			t.Fatalf("%s = %v (ok=%v), want >= %v", name, got, ok, min)
		}
	}
	mustAtLeast("p2p_sync_rounds_total", 1)
	mustAtLeast("p2p_sync_headers_total", 12)
	mustAtLeast("p2p_sync_blocks_total", 12)
	// Both directions of the conversation were counted.
	mustAtLeast("p2p_messages_total", 4) // getheaders+headers+getblocks+blocks at minimum
	mustAtLeast("p2p_net_bytes_total", 1)
	mustAtLeast("p2p_net_frames_total", 2)
	mustAtLeast("p2p_peers", 1)

	var connects int
	for _, ev := range j.Events(0) {
		if ev.Type == "peer_connect" {
			connects++
		}
	}
	if connects != 1 {
		t.Fatalf("peer_connect events = %d, want 1", connects)
	}
}
