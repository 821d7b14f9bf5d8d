package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory and are written out once, when the run ends. A disabled
// tracer (the untraced run) records nothing and costs a branch per call.
type tracer struct {
	on     bool
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

// span is one timed call. Parent is the index of the enclosing span (-1 at
// the root); Op names the pass or job the span belongs to.
type span struct {
	Name   string        `json:"name"`
	Op     string        `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(parent int, op, name string) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// record adds a span whose times were measured elsewhere.
func (t *tracer) record(parent int, op, name string, start, end time.Duration) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels an open span once its outcome is known.
func (t *tracer) rename(id int, name string) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// add accumulates a count recorded at a span boundary.
func (t *tracer) add(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// count returns an accumulated count.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// total sums the durations of every closed span with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// meanMS returns the mean duration of the named spans in milliseconds and
// their count (0, 0 when none were recorded).
func (t *tracer) meanMS(name string) (float64, int) {
	sum, n := t.total(name)
	if n == 0 {
		return 0, 0
	}
	return ms(sum) / float64(n), n
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover. Children of one span never overlap here: every
// caller that opens spans is sequential within its parent.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start - child[i]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
	}
	return self
}

// selfTable renders self times, largest first, one "name seconds" line each.
func selfTable(self map[string]time.Duration) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + " " + fmtFloat(self[n].Seconds())
	}
	return out
}

// write stores the spans and counts as one JSON document.
func (t *tracer) write(path string, host hostInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Host   hostInfo           `json:"host"`
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{host, t.spans, t.counts}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
