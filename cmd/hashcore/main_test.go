package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"hashcore"
)

// The CLI is a thin shell over the public API; these tests drive run()
// directly with a fast profile substitute being unavailable (flags only
// select built-ins), so they use small difficulties and single inputs.

func TestRunUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no args":       {},
		"unknown cmd":   {"frobnicate"},
		"missing input": {"hash"},
		"unknown flag":  {"hash", "-bogus", "x"},
		"bad profile":   {"hash", "-profile", "nope", "input"},
		"widgets range": {"hash", "-widgets", "100", "input"},
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRunProfiles(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run([]string{"profiles"}); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"leela", "mcf", "lbm"} {
		if !strings.Contains(out, want) {
			t.Errorf("profiles output missing %q", want)
		}
	}
}

func TestRunHashAndWidget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale widget run in -short mode")
	}
	out := captureStdout(t, func() {
		if err := run([]string{"hash", "test input"}); err != nil {
			t.Fatal(err)
		}
	})
	if len(strings.TrimSpace(out)) != 64 {
		t.Errorf("hash output %q is not a 32-byte hex digest", strings.TrimSpace(out))
	}

	out = captureStdout(t, func() {
		if err := run([]string{"widget", "test input"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, ".block 0") || !strings.Contains(out, "halt") {
		t.Error("widget output is not assembly source")
	}

	out = captureStdout(t, func() {
		if err := run([]string{"inspect", "test input"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "dynamic instructions") {
		t.Errorf("inspect output missing fields:\n%s", out)
	}
}

func TestRunMineVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("mining in -short mode")
	}
	out := captureStdout(t, func() {
		if err := run([]string{"mine", "-bits", "2", "-workers", "2", "hdr"}); err != nil {
			t.Fatal(err)
		}
	})
	var nonce string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "nonce:") {
			nonce = strings.TrimSpace(strings.TrimPrefix(line, "nonce:"))
		}
	}
	if nonce == "" {
		t.Fatalf("no nonce in mine output:\n%s", out)
	}
	captureStdout(t, func() {
		if err := run([]string{"verify", "-bits", "2", "-nonce", nonce, "hdr"}); err != nil {
			t.Fatalf("verify rejected mined nonce: %v", err)
		}
	})
	if err := run([]string{"verify", "-bits", "30", "-nonce", nonce, "hdr"}); err == nil {
		t.Error("verify accepted a nonce at an absurd difficulty")
	}
}

// captureStdout redirects os.Stdout for the duration of fn.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 1024)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// runOutput runs the CLI with args and returns what it printed.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	return captureStdout(t, func() {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRunDumpWidget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale widget run in -short mode")
	}
	for _, profile := range []string{"leela", "mcf"} {
		t.Run(profile, func(t *testing.T) {
			t.Setenv("HASHCORE_BACKEND", "") // auto, whatever the suite runs under
			widget := runOutput(t, "widget", "-profile", profile, "dump input")
			dump := runOutput(t, "dump-widget", "-profile", profile, "dump input")
			checkDump(t, dump, widget)
			wantNative := "; ---- native code (shared memory routines, per-block sizes) ----\n; native: "
			if !hashcore.NativeBackendSupported() {
				wantNative = "; ---- native code: unavailable ("
			}
			if !strings.Contains(dump, wantNative) {
				t.Errorf("native section does not start %q", wantNative)
			}

			// Forcing the interpreter changes the native section and
			// nothing the widget does.
			t.Setenv("HASHCORE_BACKEND", "interp")
			interp := runOutput(t, "dump-widget", "-profile", profile, "dump input")
			checkDump(t, interp, widget)
			if !strings.Contains(interp, "; ---- native code: unavailable (") {
				t.Error("interpreter-forced dump does not say native code is unavailable")
			}
			if a, b := dump[strings.LastIndex(dump, "; ---- run: "):], interp[strings.LastIndex(interp, "; ---- run: "):]; a != b {
				t.Errorf("run line differs across backends:\n%s%s", a, b)
			}
		})
	}
}

// checkDump holds a dump-widget output to its five sections, to the
// program `hashcore widget` printed, and to a sparse scratch image.
func checkDump(t *testing.T, dump, widget string) {
	t.Helper()
	// The native header is cut before the part that says whether there is
	// native code.
	sections := []string{
		"; profile=",
		"; ---- architectural stream ----\n",
		"; ---- fused stream (interpreter dispatch; block headers name the successor) ----\n",
		"; ---- native code",
		"; ---- run: ",
	}
	at := make([]int, len(sections))
	for i, h := range sections {
		at[i] = strings.Index(dump, h)
		if at[i] < 0 || (i > 0 && at[i] < at[i-1]) {
			t.Fatalf("section %q missing or out of order", h)
		}
	}
	if arch := dump[at[1]+len(sections[1]) : at[2]]; arch != widget {
		t.Errorf("architectural section (%d bytes) is not the program `hashcore widget` prints (%d bytes)", len(arch), len(widget))
	}
	var retired, written, words, slots, bytes uint64
	if _, err := fmt.Sscanf(dump[at[4]:], "; ---- run: %d instructions retired, %d of %d scratch-memory words written (table: %d slots, %d bytes)",
		&retired, &written, &words, &slots, &bytes); err != nil {
		t.Fatalf("run line %q: %v", dump[at[4]:], err)
	}
	if retired == 0 || written == 0 || written >= words {
		t.Errorf("run line reports %d retired, %d of %d words written; want a sparse, non-empty image", retired, written, words)
	}
	if slots < 2*written || bytes != 16*slots {
		t.Errorf("run line reports a table of %d slots, %d bytes for %d words; want at least two slots a word, 16 bytes a slot", slots, bytes, written)
	}
}
