package wire

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// tcpPair returns two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		client.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestConnJSONRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	ca := NewConn(a, ConnConfig{})
	cb := NewConn(b, ConnConfig{})

	type msg struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	go func() {
		for i := 0; i < 3; i++ {
			if err := ca.WriteJSON(msg{Kind: "x", N: i}); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		var got msg
		if err := cb.ReadJSON(&got); err != nil {
			t.Fatal(err)
		}
		if got.Kind != "x" || got.N != i {
			t.Fatalf("message %d = %+v", i, got)
		}
	}
}

func TestConnSkipsBlankLines(t *testing.T) {
	a, b := tcpPair(t)
	cb := NewConn(b, ConnConfig{})
	if _, err := a.Write([]byte("\n\n{\"ok\":true}\n")); err != nil {
		t.Fatal(err)
	}
	var got struct {
		OK bool `json:"ok"`
	}
	if err := cb.ReadJSON(&got); err != nil || !got.OK {
		t.Fatalf("ReadJSON = %+v, %v", got, err)
	}
}

func TestConnLineTooLong(t *testing.T) {
	a, b := tcpPair(t)
	cb := NewConn(b, ConnConfig{MaxLine: 64})
	go a.Write(append(make([]byte, 200), '\n'))
	if _, err := cb.ReadLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("ReadLine error = %v, want ErrLineTooLong", err)
	}
}

func TestConnMalformedDoesNotKillConnection(t *testing.T) {
	a, b := tcpPair(t)
	cb := NewConn(b, ConnConfig{})
	go a.Write([]byte("{not json\n{\"ok\":true}\n"))
	var got struct {
		OK bool `json:"ok"`
	}
	err := cb.ReadJSON(&got)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("first read error = %v, want ErrMalformed", err)
	}
	if err := cb.ReadJSON(&got); err != nil || !got.OK {
		t.Fatalf("second read = %+v, %v; malformed line must poison only itself", got, err)
	}
}

func TestConnEOF(t *testing.T) {
	a, b := tcpPair(t)
	cb := NewConn(b, ConnConfig{})
	a.Close()
	if _, err := cb.ReadLine(); err != io.EOF {
		t.Fatalf("ReadLine after close = %v, want io.EOF", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	type payload struct {
		Hashes []string `json:"hashes"`
	}
	env, err := NewEnvelope("getblocks", payload{Hashes: []string{"aa", "bb"}})
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := env.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Hashes) != 2 || got.Hashes[1] != "bb" {
		t.Fatalf("decoded payload = %+v", got)
	}
	if _, err := NewEnvelope("ping", nil); err != nil {
		t.Fatal(err)
	}
	if err := (&Envelope{Type: "x"}).Decode(&got); err == nil {
		t.Fatal("Decode of payload-less envelope must fail")
	}
}

func TestParseEnvelopeRequiresType(t *testing.T) {
	if _, err := ParseEnvelope([]byte(`{"data":{}}`)); !errors.Is(err, ErrMissingType) {
		t.Fatalf("err = %v, want ErrMissingType", err)
	}
	if _, err := ParseEnvelope([]byte(`garbage`)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// peerPair builds two handshaken peers over a real TCP connection.
func peerPair(t *testing.T, cfgA, cfgB PeerConfig) (*Peer, *Peer) {
	t.Helper()
	a, b := tcpPair(t)
	pa := NewPeer(a, cfgA)
	pb := NewPeer(b, cfgB)
	errs := make(chan error, 1)
	go func() {
		_, err := pb.Handshake()
		errs <- err
	}()
	if _, err := pa.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	return pa, pb
}

func TestPeerHandshakeExchangesHello(t *testing.T) {
	pa, pb := peerPair(t,
		PeerConfig{Hello: Hello{Network: "testnet", Agent: "a", Height: 7}, PingInterval: -1},
		PeerConfig{Hello: Hello{Network: "testnet", Agent: "b", Height: 3}, PingInterval: -1},
	)
	if got := pa.Remote(); got.Agent != "b" || got.Height != 3 {
		t.Fatalf("pa.Remote() = %+v", got)
	}
	if got := pb.Remote(); got.Agent != "a" || got.Height != 7 {
		t.Fatalf("pb.Remote() = %+v", got)
	}
}

func TestPeerDispatchAndGracefulClose(t *testing.T) {
	pa, pb := peerPair(t, PeerConfig{PingInterval: -1}, PeerConfig{PingInterval: -1})

	gotMsgs := make(chan Envelope, 4)
	bDone := make(chan error, 1)
	go func() {
		bDone <- pb.Run(func(env Envelope) error {
			gotMsgs <- env
			return nil
		})
	}()
	aDone := make(chan error, 1)
	go func() {
		aDone <- pa.Run(func(Envelope) error { return nil })
	}()

	if err := pa.Send("custom", map[string]int{"n": 42}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-gotMsgs:
		if env.Type != "custom" {
			t.Fatalf("dispatched type = %q", env.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never saw the message")
	}

	// Graceful close: both Runs end nil — the closer because it
	// initiated, the other because it received TypeClose.
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]chan error{"a": aDone, "b": bDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("peer %s Run = %v, want nil on graceful close", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %s Run did not return", name)
		}
	}
}

func TestPeerPingKeepsIdleSessionAlive(t *testing.T) {
	// A ping interval far below the idle timeout keeps a traffic-less
	// session alive; with pings disabled on both sides the same session
	// idles out.
	pa, pb := peerPair(t,
		PeerConfig{PingInterval: 20 * time.Millisecond, idleTimeout: 300 * time.Millisecond},
		PeerConfig{PingInterval: 20 * time.Millisecond, idleTimeout: 300 * time.Millisecond},
	)
	done := make(chan error, 2)
	go func() { done <- pa.Run(func(Envelope) error { return nil }) }()
	go func() { done <- pb.Run(func(Envelope) error { return nil }) }()
	select {
	case err := <-done:
		t.Fatalf("session died despite keepalives: %v", err)
	case <-time.After(time.Second):
	}
	pa.Close()
	<-done
	<-done
}

func TestPeerIdleTimeout(t *testing.T) {
	_, pb := peerPair(t,
		PeerConfig{PingInterval: -1},
		PeerConfig{PingInterval: -1, idleTimeout: 50 * time.Millisecond},
	)
	done := make(chan error, 1)
	go func() { done <- pb.Run(func(Envelope) error { return nil }) }()
	select {
	case err := <-done:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("Run = %v, want a timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle session never timed out")
	}
}

func TestPeerRejectsSecondHello(t *testing.T) {
	pa, pb := peerPair(t, PeerConfig{PingInterval: -1}, PeerConfig{PingInterval: -1})
	done := make(chan error, 1)
	go func() { done <- pb.Run(func(Envelope) error { return nil }) }()
	if err := pa.Send(TypeHello, Hello{Network: "again"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "hello") {
			t.Fatalf("Run = %v, want mid-session hello rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not reject the second hello")
	}
}

func TestBackoffSchedule(t *testing.T) {
	// A literal Backoff (Jitter 0) keeps the deterministic doubling
	// schedule.
	b := &Backoff{Wait: time.Second, Max: 5 * time.Second}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next() #%d = %v, want %v", i, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != time.Second {
		t.Fatalf("Next() after Reset = %v, want 1s", got)
	}
	if d := NewBackoff(0, 0); d.Wait != time.Second || d.Max != 30*time.Second || d.Jitter != DefaultJitter {
		t.Fatalf("defaults = %v/%v jitter %v", d.Wait, d.Max, d.Jitter)
	}
}

func TestBackoffJitterSpreadsDelays(t *testing.T) {
	// NewBackoff jitters: delays stay inside [d*(1-j), d*(1+j)] (capped
	// at Max) and are not all identical — the anti-stampede property.
	b := NewBackoff(time.Second, time.Minute)
	lo := time.Duration(float64(time.Second) * (1 - DefaultJitter))
	hi := time.Duration(float64(time.Second) * (1 + DefaultJitter))
	seen := make(map[time.Duration]bool)
	for i := 0; i < 32; i++ {
		b.Reset()
		d := b.Next()
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("32 jittered delays were all identical")
	}
	// The cap bounds jittered delays too.
	b = NewBackoff(time.Second, 2*time.Second)
	for i := 0; i < 16; i++ {
		if d := b.Next(); d > 2*time.Second {
			t.Fatalf("delay %v exceeds cap", d)
		}
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Now()
	tb := NewTokenBucket(10, 3) // 10/s, burst 3
	for i := 0; i < 3; i++ {
		if !tb.Allow(now) {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if tb.Allow(now) {
		t.Fatal("4th token granted from a burst-3 bucket")
	}
	// 100ms refills exactly one token at 10/s.
	if !tb.Allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("refilled token refused")
	}
	if tb.Allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("second token granted after one refill interval")
	}
	// A long idle period refills to burst, not beyond.
	later := now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !tb.Allow(later) {
			t.Fatalf("post-idle token %d refused", i)
		}
	}
	if tb.Allow(later) {
		t.Fatal("bucket refilled beyond burst")
	}
}

func TestPeerRateLimitEndsFloodingSession(t *testing.T) {
	pa, pb := peerPair(t,
		PeerConfig{PingInterval: -1},
		PeerConfig{PingInterval: -1, MsgRate: 50, msgBurst: 10},
	)
	done := make(chan error, 1)
	go func() { done <- pb.Run(func(Envelope) error { return nil }) }()

	// Blast messages far above the 50/s budget; the session must end
	// with ErrRateLimited, not hang or dispatch forever.
	go func() {
		for i := 0; i < 10_000; i++ {
			if err := pa.Send("spam", map[string]int{"i": i}); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRateLimited) {
			t.Fatalf("Run = %v, want ErrRateLimited", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flooded session never rate-limited")
	}
}

func TestPeerUnlimitedRateByDefault(t *testing.T) {
	pa, pb := peerPair(t, PeerConfig{PingInterval: -1}, PeerConfig{PingInterval: -1})
	got := make(chan struct{}, 256)
	done := make(chan error, 1)
	go func() {
		done <- pb.Run(func(Envelope) error {
			got <- struct{}{}
			return nil
		})
	}()
	for i := 0; i < 200; i++ {
		if err := pa.Send("burst", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 200 messages dispatched", i)
		}
	}
	pa.Close()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v after graceful close", err)
	}
}
