package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log; spans past it are counted, not
// kept, so a long saturating run cannot grow the generator without limit.
const maxSpans = 200000

// sampleEvery picks the requests (and receive calls) whose spans are kept:
// one in sampleEvery, so the log covers every rung of a run within
// maxSpans.
const sampleEvery = 16

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call: name, start and end on the run clock, the span that
// caused it, and the request it belongs to (0 when it serves several).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	id, parent uint64
	req        uint64
	lane       int
}

// tracer records spans in memory and writes them out once, at the end, in
// the Chrome trace-event format cohorttrace reads. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// epoch starts the run clock every timestamp in the benchmark is read from.
var epoch = time.Now()

// now returns the run clock in ns (monotonic).
func now() int64 { return int64(time.Since(epoch)) }

// sampled reports whether spans of request (or receive call) n are kept.
func (t *tracer) sampled(n uint64) bool { return t != nil && n%sampleEvery == 0 }

// newID allocates a span id (0 on a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record files a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, fn func()) {
	start := now()
	fn()
	t.record(span{name: name, start: start, end: now(), id: t.newID()})
}

// chromeEvent is one complete ("X") event of the Chrome trace format, with
// whole microseconds as cohorttrace reads them.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// write dumps every kept span to path and returns how many it wrote.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(chromeEvent{
			Name: s.name, Ph: "X", Ts: (s.start + 500) / 1e3, Dur: (s.end - s.start + 500) / 1e3,
			Pid: 1, Tid: s.lane, Args: map[string]uint64{"id": s.id, "parent": s.parent, "req": s.req},
		}); err != nil {
			f.Close()
			return 0, err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}
