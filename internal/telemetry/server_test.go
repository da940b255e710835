package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestPlane(t *testing.T, healthz func() error) (*Registry, *Journal, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	j := NewJournal(16)
	srv := httptest.NewServer(NewMux(reg, j, healthz))
	t.Cleanup(srv.Close)
	return reg, j, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	reg, _, srv := newTestPlane(t, nil)
	reg.Counter("hc_things_total", "Things.").Add(5)
	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "hc_things_total 5") {
		t.Fatalf("missing metric in:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE hc_things_total counter") {
		t.Fatalf("missing TYPE line in:\n%s", body)
	}
}

func TestEventsEndpoint(t *testing.T) {
	_, j, srv := newTestPlane(t, nil)
	j.Emit("tip", map[string]any{"height": 1})
	j.Emit("ban", map[string]any{"host": "h"})
	j.Emit("tip", map[string]any{"height": 2})

	code, body := get(t, srv.URL+"/events")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	count := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		count++
	}
	if count != 3 {
		t.Fatalf("got %d events", count)
	}

	code, body = get(t, srv.URL+"/events?n=1")
	if code != 200 || strings.Count(body, "\n") != 1 {
		t.Fatalf("?n=1: status %d body %q", code, body)
	}
	var last Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "tip" || last.Seq != 2 {
		t.Fatalf("newest = %+v", last)
	}

	if code, _ := get(t, srv.URL+"/events?n=bogus"); code != 400 {
		t.Fatalf("bad n: status %d", code)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	fail := errors.New("store halted: disk full")
	var sick bool
	_, _, srv := newTestPlane(t, func() error {
		if sick {
			return fail
		}
		return nil
	})
	if code, body := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthy: %d %q", code, body)
	}
	sick = true
	if code, body := get(t, srv.URL+"/healthz"); code != 503 || !strings.Contains(body, "disk full") {
		t.Fatalf("sick: %d %q", code, body)
	}
}

func TestPprofMounted(t *testing.T) {
	_, _, srv := newTestPlane(t, nil)
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	s, err := Serve("127.0.0.1:0", NewMux(reg, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	// NewMux registers the process gauges.
	if !strings.Contains(body, "process_goroutines") || !strings.Contains(body, "process_uptime_seconds") {
		t.Fatalf("process metrics missing in:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
