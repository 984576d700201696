package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory and writes them out at exit. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, start, end time.Time, parent int, op int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
}

// selfTime is one span name's total and self time: its duration minus the
// part its child spans cover.
type selfTime struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// summary aggregates spans by name, largest self time first.
func (t *tracer) summary() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.Count++
		st.TotalMs += d / 1e6
		st.SelfMs += (d - float64(child[i])) / 1e6
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "trace: %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range t.summary() {
		fmt.Fprintf(w, "trace: %-28s %9d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
}

// writeFile writes every span as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
