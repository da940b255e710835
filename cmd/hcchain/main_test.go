package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunStandaloneResumes mines into a datadir without peers, mines
// again from the replayed tip, and checks that HASHCORE_BACKEND is read
// on this path too: an unknown value is an error, not the default.
func TestRunStandaloneResumes(t *testing.T) {
	dir := t.TempDir()
	args := func(blocks string) []string {
		return []string{"-blocks", blocks, "-zero-bits", "4", "-datadir", dir}
	}
	mine := func(blocks string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(context.Background(), args(blocks), &out); err != nil {
			t.Fatalf("-blocks %s: %v\n%s", blocks, err, out.String())
		}
		return out.String()
	}

	first := mine("2")
	for _, want := range []string{"0 blocks replayed", "mined block 2/2 at height 2 ", "hcchain: done — height 2, tip "} {
		if !strings.Contains(first, want) {
			t.Errorf("first run lacks %q:\n%s", want, first)
		}
	}
	second := mine("1")
	for _, want := range []string{"height 2, tip ", "2 blocks replayed", "mined block 1/1 at height 3 ", "hcchain: done — height 3, tip "} {
		if !strings.Contains(second, want) {
			t.Errorf("second run lacks %q:\n%s", want, second)
		}
	}

	t.Setenv("HASHCORE_BACKEND", "bogus")
	var out bytes.Buffer
	err := run(context.Background(), args("1"), &out)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("HASHCORE_BACKEND=bogus: err = %v, want one naming the unknown backend", err)
	}
	if out.Len() != 0 {
		t.Errorf("HASHCORE_BACKEND=bogus ran the node before failing:\n%s", out.String())
	}
}

// TestRunNetworkedStopsOnCancel boots a listening node with the debug
// server on ephemeral ports, waits for its block, reads the health probe
// from the printed debug address, then cancels and expects a clean
// shutdown and the summary line.
func TestRunNetworkedStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-blocks", "1", "-zero-bits", "4"}, pw)
		pw.Close()
	}()
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	var debug string
	deadline := time.After(60 * time.Second)
	for mined := false; !mined; {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("run exited before mining: %v", <-done)
			}
			if rest, found := strings.CutPrefix(line, "hcchain: debug server on http://"); found {
				debug, _, _ = strings.Cut(rest, " ")
			}
			mined = strings.HasPrefix(line, "hcchain: mined block 1/1 at height 1 ")
		case <-deadline:
			t.Fatal("no block mined")
		}
	}
	if debug == "" {
		t.Fatal("no debug address printed before mining")
	}
	resp, err := http.Get("http://" + debug + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz: %d %q %v", resp.StatusCode, body, err)
	}

	// A networked node serves until cancelled, however many blocks it
	// was asked to mine.
	select {
	case err := <-done:
		t.Fatalf("run returned before cancel: %v", err)
	default:
	}
	cancel()
	var rest []string
	for collecting := true; collecting; {
		select {
		case line, ok := <-lines:
			if collecting = ok; ok {
				rest = append(rest, line)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	tail := strings.Join(rest, "\n")
	if !strings.Contains(tail, "hcchain: done — height 1, tip ") {
		t.Errorf("no summary line after cancel:\n%s", tail)
	}
}
