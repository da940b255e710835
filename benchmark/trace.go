package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the call. Start and End are nanoseconds since the tracer was made.
// Parent is the index of the span that caused it (-1 for a root); spans of
// one operation (one hash, one share, one block) share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps the spans of a traced run in memory; they are written out
// when the run ends. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allots the identifier for a new operation.
func (t *tracer) op() int {
	t.ops++
	return t.ops
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return s.End - s.Start
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover, over the spans recorded since index from.
func (t *tracer) selfTimes(from int) map[string]int64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		self[s.Name] += s.End - s.Start - covered[i]
	}
	return self
}

// check verifies the span tree is well formed: every span closed, every
// parent recorded before its child and of the same operation, and every
// child inside its parent.
func (t *tracer) check() error {
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) names parent %d, which is not an earlier span", i, s.Name, s.Parent)
		}
		p := t.spans[s.Parent]
		if p.Op != s.Op {
			return fmt.Errorf("span %d (%s) belongs to operation %d but its parent to %d", i, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %s [%d,%d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// write stores the spans as trace-<workload>.json under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Host     hostStamp `json:"host"`
		Spans    []span    `json:"spans"`
	}{workload, seed, stampHost(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
