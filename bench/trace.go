package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around calls into each layer's public functions; nothing inside the
// program is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // span that caused this one; 0 for a root
	Run    string `json:"run"`    // shared by every span of one traced run
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untimed paths share code with the
// traced ones.
type tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex // the live phase's subscribers record spans concurrently
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// begin opens a span and returns its ID (0 with tracing off).
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns how long it took; with tracing off
// it still times fn, so probes can run untraced in tests.
func (t *tracer) timed(name, layer string, parent int, fn func()) time.Duration {
	id := t.begin(name, layer, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drop forgets the most recent span (the Step call that only reported done).
func (t *tracer) drop(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == len(t.spans) {
		t.spans = t.spans[:id-1]
	}
}

// tracePath is where a traced run of the workload leaves its spans.
func tracePath(p params) string {
	return filepath.Join(p.outDir(), "trace-"+p.workload+".jsonl")
}
