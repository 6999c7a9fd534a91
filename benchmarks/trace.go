package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans of one request (or one op)
// share Request; Parent is the ID of the span that caused this one, 0 for a
// root. Times are microseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Request string `json:"request"`
}

// recorder keeps spans in memory until the traced pass ends. Past maxSpans
// it keeps counting but stops storing, so a long pass cannot grow without
// bound; the totals behind the per-layer numbers are accumulated separately
// and lose nothing.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

const maxSpans = 50_000

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its ID (0 when it was dropped).
func (r *recorder) add(parent int, name, request string, start time.Time, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := len(r.spans) + 1
	s := start.Sub(r.t0).Microseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartUS: s, EndUS: s + d.Microseconds(), Request: request})
	return id
}

// selfTimes is, per span name, the summed duration of its spans minus the
// part their direct children cover: the time spent in that layer itself.
func selfTimes(spans []span) map[string]float64 {
	childUS := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childUS[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.EndUS - s.StartUS - childUS[s.ID]
		if self < 0 {
			self = 0 // children measured on another clock may overhang by a microsecond
		}
		out[s.Name] += float64(self)
	}
	return out
}

// traceFile is what trace.json holds.
type traceFile struct {
	Record    runRecord          `json:"record"`
	Workload  string             `json:"workload"`
	Spans     []span             `json:"spans"`
	Dropped   int                `json:"dropped_spans"`
	SelfUS    map[string]float64 `json:"self_us"`
	PerLayer  map[string]metric  `json:"per_layer"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

func writeTrace(path string, tf traceFile) error {
	tf.SelfUS = selfTimes(tf.Spans)
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
