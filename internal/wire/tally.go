package wire

import "sync/atomic"

// ConnStats is a point-in-time snapshot of transport accounting: raw
// bytes moved over the socket and whole NDJSON frames delivered.
// BytesOut counts what the kernel actually accepted, so a partial write
// that dies mid-frame still shows its transmitted prefix while
// FramesOut does not advance — the difference is exactly the torn
// frame.
type ConnStats struct {
	BytesIn   uint64
	BytesOut  uint64
	FramesIn  uint64
	FramesOut uint64
}

// ConnTally accumulates ConnStats across any number of connections.
// The zero value is ready; all methods are safe for concurrent use and
// nil-safe, so a ConnConfig without a tally costs only nil checks.
// Daemons hang one process-wide tally off their connections and expose
// it through telemetry CounterFuncs.
type ConnTally struct {
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	framesIn  atomic.Uint64
	framesOut atomic.Uint64
}

// Snapshot returns the current totals (zero for nil).
func (t *ConnTally) Snapshot() ConnStats {
	if t == nil {
		return ConnStats{}
	}
	return ConnStats{
		BytesIn:   t.bytesIn.Load(),
		BytesOut:  t.bytesOut.Load(),
		FramesIn:  t.framesIn.Load(),
		FramesOut: t.framesOut.Load(),
	}
}

func (t *ConnTally) addBytesIn(n uint64) {
	if t != nil {
		t.bytesIn.Add(n)
	}
}

func (t *ConnTally) addBytesOut(n uint64) {
	if t != nil {
		t.bytesOut.Add(n)
	}
}

func (t *ConnTally) frameIn() {
	if t != nil {
		t.framesIn.Add(1)
	}
}

func (t *ConnTally) frameOut() {
	if t != nil {
		t.framesOut.Add(1)
	}
}

// countingReader feeds the conn's scanner, crediting every byte the
// socket delivers (including protocol framing the scanner later strips)
// to the shared tally.
type countingReader struct{ c *Conn }

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.c.nc.Read(p)
	if n > 0 {
		r.c.tally.addBytesIn(uint64(n))
	}
	return n, err
}

// countingWriter wraps the socket for WriteJSON, crediting the bytes
// the kernel actually accepted — on a partial write the transmitted
// prefix is still counted even though the frame is torn.
type countingWriter struct{ c *Conn }

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.c.nc.Write(p)
	if n > 0 {
		w.c.tally.addBytesOut(uint64(n))
	}
	return n, err
}
