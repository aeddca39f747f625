package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the driver around the
// call (the program under test is not instrumented).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 at the root.
	Parent int `json:"parent"`
	// Segment is the timed segment the span belongs to, -1 outside one.
	Segment int `json:"segment"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how an untraced segment runs the same code with the
// trace path off.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	segment int
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), segment: -1} }

// start opens a span under parent and returns its index.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.epoch)), Parent: parent, Segment: t.segment})
	return len(t.spans) - 1
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = int64(time.Since(t.epoch))
	t.mu.Unlock()
}

// setSegment labels the spans started from now on.
func (t *tracer) setSegment(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.segment = id
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is the total minus the part of each span its child spans
	// cover.
	SelfNs int64 `json:"self_ns"`
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the union of its children's intervals clipped to it.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*layerTime)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(spans[k].StartNs, reach), min(spans[k].EndNs, s.EndNs)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalNs += s.EndNs - s.StartNs
		lt.SelfNs += s.EndNs - s.StartNs - covered
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their per-layer aggregation as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{selfTimes(t.spans), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
