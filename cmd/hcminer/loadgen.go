package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hashcore/internal/pool"
	"hashcore/internal/wire"
)

// loadStats aggregates what the subscriber fleet observes.
type loadStats struct {
	connected atomic.Int64
	notifies  atomic.Int64
	results   atomic.Int64
	errors    atomic.Int64
}

// runLoadGen is hcminer's pool load-generator mode (-conns N): N
// subscribed connections that read every notify but never mine, for
// exercising a pool server's broadcast fan-out and connection handling
// at scale. Each connection subscribes under "<name>-<i>" and counts
// the messages it receives; aggregate rates print periodically until
// interrupted.
func runLoadGen(ctx context.Context, out io.Writer, poolAddr, name string, conns int) error {
	if name == "" {
		name = "load"
	}
	var st loadStats
	var wg sync.WaitGroup
	var dialErrs atomic.Int64

	cfg := wire.ConnConfig{MaxLine: pool.MaxLineBytes, WriteTimeout: 5 * time.Second}
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", poolAddr)
			if err != nil {
				dialErrs.Add(1)
				return
			}
			defer nc.Close()
			// Tear the connection down when the run is cancelled so the
			// blocking read below returns.
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-ctx.Done():
					nc.Close()
				case <-done:
				}
			}()

			conn := wire.NewConn(nc, cfg)
			if err := conn.WriteJSON(&pool.Envelope{
				Type:  pool.TypeSubscribe,
				Miner: fmt.Sprintf("%s-%d", name, i),
				Agent: "hcminer-loadgen/1",
			}); err != nil {
				return
			}
			st.connected.Add(1)
			defer st.connected.Add(-1)
			for {
				var env pool.Envelope
				if err := conn.ReadJSON(&env); err != nil {
					return
				}
				switch env.Type {
				case pool.TypeNotify:
					st.notifies.Add(1)
				case pool.TypeResult:
					st.results.Add(1)
				case pool.TypeError:
					st.errors.Add(1)
				}
			}
		}(i)
	}

	fmt.Fprintf(out, "hcminer: load generator — %d subscriber conns against %s (no mining)\n", conns, poolAddr)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	last := int64(0)
	lastAt := time.Now()
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			fmt.Fprintf(out, "hcminer: load generator done — %d notifies, %d results, %d errors (%d dial failures)\n",
				st.notifies.Load(), st.results.Load(), st.errors.Load(), dialErrs.Load())
			return nil
		case <-ticker.C:
			now := time.Now()
			total := st.notifies.Load()
			rate := float64(total-last) / now.Sub(lastAt).Seconds()
			last, lastAt = total, now
			fmt.Fprintf(out, "hcminer: conns=%d notifies=%d (%.0f/s) results=%d errors=%d\n",
				st.connected.Load(), total, rate, st.results.Load(), st.errors.Load())
		}
	}
}
