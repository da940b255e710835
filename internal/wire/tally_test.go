package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// flakyConn is a net.Conn stub whose Write transmits only the first
// limit bytes and then fails — the partial-write path real sockets hit
// when the peer dies mid-frame.
type flakyConn struct {
	net.Conn // nil; only Write is used
	limit    int
	written  []byte
}

var errWriteTorn = errors.New("torn write")

func (f *flakyConn) Write(p []byte) (int, error) {
	n := len(p)
	if n > f.limit {
		n = f.limit
	}
	f.written = append(f.written, p[:n]...)
	f.limit -= n
	if n < len(p) {
		return n, errWriteTorn
	}
	return n, nil
}

func (f *flakyConn) Close() error                     { return nil }
func (f *flakyConn) SetWriteDeadline(time.Time) error { return nil }

func TestConnStatsRoundTrip(t *testing.T) {
	var ta, tb ConnTally
	a, b := net.Pipe()
	ca := NewConn(a, ConnConfig{Tally: &ta})
	cb := NewConn(b, ConnConfig{Tally: &tb})
	defer ca.Close()
	defer cb.Close()

	type msg struct{ X string }
	done := make(chan error, 1)
	go func() { done <- ca.WriteJSON(msg{X: "hello"}) }()
	var got msg
	if err := cb.ReadJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.X != "hello" {
		t.Fatalf("got %+v", got)
	}

	as, bs := ta.Snapshot(), tb.Snapshot()
	if as.FramesOut != 1 || as.BytesOut == 0 || as.FramesIn != 0 || as.BytesIn != 0 {
		t.Fatalf("writer tally = %+v", as)
	}
	if bs.FramesIn != 1 || bs.BytesIn != as.BytesOut || bs.FramesOut != 0 || bs.BytesOut != 0 {
		t.Fatalf("reader tally = %+v vs writer %+v", bs, as)
	}
}

// A write that dies mid-frame must count the transmitted prefix in
// BytesOut but never advance FramesOut.
func TestConnStatsPartialWrite(t *testing.T) {
	var tally ConnTally
	fc := &flakyConn{limit: 5}
	c := NewConn(fc, ConnConfig{Tally: &tally})

	err := c.WriteJSON(map[string]string{"k": "a long enough value to overflow the limit"})
	if !errors.Is(err, errWriteTorn) {
		t.Fatalf("err = %v", err)
	}
	s := tally.Snapshot()
	if s.BytesOut != 5 {
		t.Fatalf("BytesOut = %d, want 5 (the transmitted prefix)", s.BytesOut)
	}
	if s.FramesOut != 0 {
		t.Fatalf("FramesOut = %d, want 0 (frame was torn)", s.FramesOut)
	}
	if len(fc.written) != 5 {
		t.Fatalf("stub recorded %d bytes", len(fc.written))
	}
}

// Writes and reads on a closed connection must fail without moving any
// counter.
func TestConnStatsClosedConn(t *testing.T) {
	var ta, tb ConnTally
	a, b := net.Pipe()
	ca := NewConn(a, ConnConfig{Tally: &ta})
	cb := NewConn(b, ConnConfig{Tally: &tb})
	ca.Close()
	cb.Close()

	if err := ca.WriteJSON(map[string]int{"x": 1}); err == nil {
		t.Fatal("WriteJSON on closed conn succeeded")
	}
	if _, err := cb.ReadLine(); err == nil {
		t.Fatal("ReadLine on closed conn succeeded")
	}
	if s := ta.Snapshot(); s != (ConnStats{}) {
		t.Fatalf("writer tally moved: %+v", s)
	}
	if s := tb.Snapshot(); s != (ConnStats{}) {
		t.Fatalf("reader tally moved: %+v", s)
	}
}

// A conn without a tally still carries frames, and a nil tally is
// inert.
func TestConnStatsNoTally(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a, ConnConfig{})
	cb := NewConn(b, ConnConfig{})
	defer ca.Close()
	defer cb.Close()

	done := make(chan error, 1)
	go func() { done <- ca.WriteJSON(map[string]int{"x": 1}) }()
	var v map[string]int
	if err := cb.ReadJSON(&v); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v["x"] != 1 {
		t.Fatalf("got %v", v)
	}
	var nilTally *ConnTally
	if nilTally.Snapshot() != (ConnStats{}) {
		t.Fatal("nil tally snapshot not zero")
	}
	nilTally.addBytesIn(1)
	nilTally.frameOut() // must not panic
}
