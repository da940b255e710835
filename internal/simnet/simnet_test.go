package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pair dials a connection between two hosts and returns both ends.
func pair(t *testing.T, n *Network, from, to string) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := n.Host(to).Listen(to + ":1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted net.Conn
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		accepted = c
		done <- err
	}()
	dialed, err := n.Host(from).Dial(to+":1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return dialed, accepted
}

func TestRoundTripAndAddrs(t *testing.T) {
	n := New(Config{})
	a, b := pair(t, n, "alice", "bob")
	defer a.Close()
	defer b.Close()

	if got := a.RemoteAddr().String(); got != "bob:1" {
		t.Fatalf("dialer RemoteAddr = %q, want bob:1", got)
	}
	if host := hostOf(b.RemoteAddr().String()); host != "alice" {
		t.Fatalf("accept side remote host = %q, want alice", host)
	}

	msg := []byte("hello over simnet\n")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q", buf)
	}

	// And the reverse direction.
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 4)
	if _, err := io.ReadFull(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Fatalf("got %q", buf)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const lat = 50 * time.Millisecond
	n := New(Config{Latency: lat})
	a, b := pair(t, n, "a", "b")
	defer a.Close()
	defer b.Close()

	start := time.Now()
	if _, err := a.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("delivered in %v, want >= %v", elapsed, lat)
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(Config{})
	a, b := pair(t, n, "a", "b")
	defer a.Close()
	defer b.Close()

	b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := b.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past deadline: err = %v, want net.Error timeout", err)
	}

	// Clearing the deadline makes the conn usable again.
	b.SetReadDeadline(time.Time{})
	if _, err := a.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, make([]byte, 1)); err != nil {
		t.Fatalf("read after deadline cleared: %v", err)
	}
}

func TestWriteDeadlineUnderBackpressure(t *testing.T) {
	n := New(Config{})
	a, b := pair(t, n, "a", "b")
	defer a.Close()
	defer b.Close()

	a.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	// Nobody reads from b, so the 1 MiB buffer fills and the write must
	// time out instead of blocking forever (the slow-loris defense seam).
	_, err := a.Write(make([]byte, maxBuffered+64<<10))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("write into full buffer: err = %v, want timeout", err)
	}
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	n := New(Config{})
	a, b := pair(t, n, "a", "b")
	defer b.Close()

	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q, want tail", got)
	}
	if _, err := a.Write([]byte("z")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want net.ErrClosed", err)
	}
}

func TestPartitionSeversAndBlocksDials(t *testing.T) {
	n := New(Config{})
	a, b := pair(t, n, "left", "right")
	defer a.Close()
	defer b.Close()

	n.Partition([]string{"left"}, []string{"right"})

	// Existing cross-partition connections die.
	if _, err := b.Read(make([]byte, 1)); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("read on severed conn: err = %v, want reset", err)
	}
	// New cross-partition dials are refused.
	if _, err := n.Host("left").Dial("right:1", 200*time.Millisecond); err == nil {
		t.Fatal("cross-partition dial succeeded")
	}

	// Same-side traffic is unaffected.
	ln, err := n.Host("left").Listen("left:9")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Write([]byte("ok"))
			c.Close()
		}
	}()
	c, err := n.Host("left").Dial("left:9", time.Second)
	if err != nil {
		t.Fatalf("same-partition dial: %v", err)
	}
	defer c.Close()

	// After Heal, cross-partition dials work again.
	n.Heal()
	c2, err := n.Host("left").Dial("right:1", time.Second)
	if err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
	c2.Close()
}

func TestDownHostRefusesAndSevers(t *testing.T) {
	n := New(Config{})
	a, b := pair(t, n, "a", "b")
	defer a.Close()
	defer b.Close()

	n.Down("b")
	if _, err := a.Read(make([]byte, 1)); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("conn to downed host: err = %v, want reset", err)
	}
	if _, err := n.Host("a").Dial("b:1", 100*time.Millisecond); err == nil {
		t.Fatal("dial to downed host succeeded")
	}
	n.Up("b")
	c, err := n.Host("a").Dial("b:1", time.Second)
	if err != nil {
		t.Fatalf("dial after Up: %v", err)
	}
	c.Close()
}

func TestDialUnknownAddressFails(t *testing.T) {
	n := New(Config{})
	if _, err := n.Host("a").Dial("nobody:1", 100*time.Millisecond); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := New(Config{})
	ln, err := n.Host("h").Listen("h:1")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ln.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close: %v, want net.ErrClosed", err)
	}
	// The address is free again.
	if _, err := n.Host("h").Listen("h:1"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

// TestConcurrentTraffic hammers one network with many connections over
// a link with latency; run with -race this is the transport's
// thread-safety gate.
func TestConcurrentTraffic(t *testing.T) {
	n := New(Config{Latency: time.Millisecond})
	ln, err := n.Host("srv").Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c) // echo
				c.Close()
			}()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := n.Host("cli").Dial("srv:1", 5*time.Second)
			if err != nil {
				t.Errorf("dial %d: %v", id, err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(id)}, 4096)
			go c.Write(msg)
			buf := make([]byte, len(msg))
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Errorf("echo %d: %v", id, err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("echo %d corrupted", id)
			}
		}(i)
	}
	wg.Wait()
}
