package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps a traced run's spans in memory; writeTrace saves them as a
// Chrome trace-event file when the run ends. It is also the
// telemetry.SpanSink handed to the harness for its leg spans.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Spans of one job carry the job's
// id in args["job"].
type span struct {
	name, cat  string
	start, end time.Time
	args       map[string]any
}

func (t *tracer) Span(name, cat string, start, end time.Time, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, cat: cat, start: start, end: end, args: args})
}

// byCat returns the durations in ms of the spans of one category.
func (t *tracer) byCat(cat string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.cat == cat {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// count returns how many spans of one category have been recorded.
func (t *tracer) count(cat string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.cat == cat {
			n++
		}
	}
	return n
}

// writeTrace saves the spans of every tracer as one Chrome trace-event JSON
// file (load it in Perfetto), one track per span category.
func writeTrace(path string, ts ...*tracer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var origin time.Time
	for _, t := range ts {
		t.mu.Lock()
		for _, s := range t.spans {
			if origin.IsZero() || s.start.Before(origin) {
				origin = s.start
			}
		}
		t.mu.Unlock()
	}
	tids := map[string]int{}
	var events []event
	for _, t := range ts {
		t.mu.Lock()
		for _, s := range t.spans {
			if _, ok := tids[s.cat]; !ok {
				tids[s.cat] = len(tids) + 1
			}
			events = append(events, event{
				Name: s.name, Cat: s.cat, Ph: "X", PID: 1, TID: tids[s.cat], Args: s.args,
				Ts:  float64(s.start.Sub(origin)) / 1e3,
				Dur: float64(s.end.Sub(s.start)) / 1e3,
			})
		}
		t.mu.Unlock()
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
