package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunServesOneDebugPlane boots the daemon on ephemeral ports and
// reads the pool ledger, the metrics and the health probe from the one
// debug address, then cancels the context and expects a clean drain.
func TestRunServesOneDebugPlane(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-refresh", "-1s", "-verify-workers", "1"}, pw)
		pw.Close()
	}()

	// Room for every line run prints, so its drain lines never wait on
	// a test that is itself waiting for run to return.
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var debug string
	deadline := time.After(30 * time.Second)
	for served := false; !served; {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("run exited before serving: %v", <-done)
			}
			if rest, found := strings.CutPrefix(line, "hcpoold: debug server on http://"); found {
				debug, _, _ = strings.Cut(rest, " ")
			}
			served = strings.HasPrefix(line, "hcpoold: serving ")
		case <-deadline:
			t.Fatal("daemon did not come up")
		}
	}
	if debug == "" {
		t.Fatal("no debug address printed before serving")
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + debug + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	var stats map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"pool", "hasher", "job_id", "height", "share_bits", "block_bits",
		"blocks_solved", "connections", "queue_depth", "seen_shares", "totals", "miners"} {
		if _, ok := stats[field]; !ok {
			t.Errorf("/stats lacks %q: %v", field, stats)
		}
	}
	if m := get("/metrics"); !strings.Contains(m, "\npool_connections ") {
		t.Errorf("/metrics lacks pool_connections:\n%s", m)
	}
	if h := get("/healthz"); strings.TrimSpace(h) != "ok" {
		t.Errorf("/healthz = %q", h)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	for range lines { // the drain lines; the scanner ends at the pipe's close
	}
}
