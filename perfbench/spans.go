package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// offsets from the tracer's epoch; parent is the enclosing span's id
// (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Ops is how many calls the span covers (a probe loop times many
	// cheap calls under one span).
	Ops int `json:"ops"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Ops: 1})
	return len(t.spans)
}

// end closes span id, covering ops calls.
func (t *tracer) end(id, ops int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Ops = ops
}

// add records a finished span whose name was only known at its end (an
// HTTP request is a hit or a miss once the reply says so).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Ops: 1})
}

// do runs fn under a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.start(name, parent)
	fn()
	t.end(id, 1)
}

// writeJSON writes every span, one JSON object per line.
func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its children cover. Children may nest or
// overlap (concurrent requests under one pass); overlapping parts
// count once, and parts outside the parent are ignored.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStats aggregates the self time of the spans under one key.
type spanStats struct {
	self  time.Duration // total self time
	ops   int           // total calls covered
	roots int           // distinct root spans (set-ups, passes, probes) containing them
}

// aggregate folds spans by root span name and span name, as
// "<root>/<name>": set-ups, passes and probes call the same layers for
// different reasons.
func aggregate(spans []span) map[string]spanStats {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	root := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	self := selfTimes(spans)
	out := make(map[string]spanStats)
	seen := make(map[string]map[int]bool)
	for i, s := range spans {
		r := root(s)
		key := r.Name + "/" + s.Name
		st := out[key]
		st.self += self[i]
		st.ops += s.Ops
		if seen[key] == nil {
			seen[key] = make(map[int]bool)
		}
		if !seen[key][r.ID] {
			seen[key][r.ID] = true
			st.roots++
		}
		out[key] = st
	}
	return out
}

// perRoot is the mean self time of key's spans per root span that
// contains them, in seconds (e.g. "pass/machine.RunContext": RunContext
// time per pass).
func perRoot(agg map[string]spanStats, key string) float64 {
	st := agg[key]
	if st.roots == 0 {
		return 0
	}
	return st.self.Seconds() / float64(st.roots)
}

// perOp is the mean self time of one call of key's spans, in seconds.
func perOp(agg map[string]spanStats, key string) float64 {
	st := agg[key]
	if st.ops == 0 {
		return 0
	}
	return st.self.Seconds() / float64(st.ops)
}
