package mtable

import (
	"fmt"
	"slices"
)

// History records every state a reference-table key has held, indexed by a
// logical sequence number (the count of backend operations executed by the
// harness's Tables machine). The stream checker uses it to validate the
// weak consistency contract of streamed reads: every emitted row must
// match some state the key held inside the stream's window, and a key
// that existed unchanged (and matched the filter) throughout the window
// must not be missing from the output.
type History struct {
	keys []keyHistory // ascending key
}

// keyHistory is one key's states, ascending in seq.
type keyHistory struct {
	key      Key
	versions []version
}

type version struct {
	seq     int64
	props   Properties // shared with the table that reported it
	present bool       // false = the key was absent
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Clone returns an independent copy of the history: records made in
// either leave the other unchanged. A key's versions are only ever
// appended to, so the copy shares them clipped to their length, and its
// first append to one copies that one.
func (h *History) Clone() *History {
	c := &History{keys: slices.Clone(h.keys)}
	for i := range c.keys {
		c.keys[i].versions = slices.Clip(c.keys[i].versions)
	}
	return c
}

func (h *History) find(key Key) (int, bool) {
	return slices.BinarySearchFunc(h.keys, key, func(e keyHistory, key Key) int { return e.key.Compare(key) })
}

// versions returns key's recorded states.
func (h *History) versions(key Key) []version {
	if i, ok := h.find(key); ok {
		return h.keys[i].versions
	}
	return nil
}

func (h *History) record(key Key, v version) {
	i, ok := h.find(key)
	if !ok {
		h.keys = slices.Insert(h.keys, i, keyHistory{key: key})
	}
	h.keys[i].versions = append(h.keys[i].versions, v)
}

// Record appends a state change for key at sequence seq. Calls must use
// non-decreasing seq.
func (h *History) Record(seq int64, key Key, props Properties) {
	h.record(key, version{seq: seq, props: props, present: true})
}

// RecordAbsent appends key's deletion at sequence seq.
func (h *History) RecordAbsent(seq int64, key Key) {
	h.record(key, version{seq: seq})
}

// window returns the state vs held at `from` and every change recorded in
// (from, to] — together, every state the key held inside the window.
func window(vs []version, from, to int64) (base version, changes []version) {
	lo := 0
	for lo < len(vs) && vs[lo].seq <= from {
		lo++
	}
	hi := lo
	for hi < len(vs) && vs[hi].seq <= to {
		hi++
	}
	if lo > 0 {
		base = vs[lo-1]
	}
	return base, vs[lo:hi]
}

// CheckStream validates a streamed read's output against the history.
// Window is [from, to] in sequence numbers; filter is the stream's filter.
// It returns a non-nil error describing the first violation:
//
//   - an emitted row whose (key, props) matches no state the key held in
//     the window (stale, resurrected, fabricated, or filter-violating row);
//   - an emitted key out of order or duplicated; or
//   - a key that existed with one stable, filter-matching value throughout
//     the window but does not appear in the output (a lost row).
func (h *History) CheckStream(partition string, filter *Filter, from, to int64, rows []Row) error {
	prev := ""
	for i, r := range rows {
		if r.Key.Partition != partition {
			return fmt.Errorf("stream emitted row %v from wrong partition", r.Key)
		}
		if i > 0 && r.Key.Row <= prev {
			return fmt.Errorf("stream emitted key %q out of order (after %q)", r.Key.Row, prev)
		}
		prev = r.Key.Row
		if !filter.Matches(r.Props) {
			return fmt.Errorf("stream emitted row %q that fails the filter: %v", r.Key.Row, r.Props)
		}
		base, changes := window(h.versions(r.Key), from, to)
		valid := base.present && base.props.Equal(r.Props)
		for _, v := range changes {
			valid = valid || v.present && v.props.Equal(r.Props)
		}
		if !valid {
			return fmt.Errorf("stream emitted row %q with properties %v matching no state in window [%d,%d]",
				r.Key.Row, r.Props, from, to)
		}
	}
	// Completeness: stable, matching keys must appear. (rows is ascending
	// by row key — checked above — so membership is a search.)
	for _, e := range h.keys {
		if e.key.Partition != partition {
			continue
		}
		base, changes := window(e.versions, from, to)
		if !base.present {
			continue
		}
		stable := true
		for _, v := range changes {
			if !v.present || !v.props.Equal(base.props) {
				stable = false
				break
			}
		}
		if !stable || !filter.Matches(base.props) {
			continue
		}
		if _, ok := findRow(rows, e.key.Row); !ok {
			return fmt.Errorf("stream lost row %q: it held %v throughout window [%d,%d] and matches the filter",
				e.key.Row, base.props, from, to)
		}
	}
	return nil
}
