package mtable

import (
	"iter"
	"slices"
	"strings"
)

// Views the tests inspect state through. The model and its harness never
// read state this way, so these live with the tests.

// PropsFromMap builds a payload from a map (copied).
func PropsFromMap(m map[string]int64) Properties {
	if len(m) == 0 {
		return Properties{}
	}
	ps := make([]Prop, 0, len(m))
	for name, v := range m {
		ps = append(ps, Prop{name, v})
	}
	slices.SortFunc(ps, func(a, b Prop) int { return strings.Compare(a.Name, b.Name) })
	return Properties{ps: ps}
}

// Len returns the number of columns.
func (p Properties) Len() int { return len(p.ps) }

// All iterates the columns in name order.
func (p Properties) All() iter.Seq2[string, int64] {
	return func(yield func(string, int64) bool) {
		for _, e := range p.ps {
			if !yield(e.Name, e.Value) {
				return
			}
		}
	}
}

// Len returns the number of rows in the partition.
func (t *RefTable) Len(partition string) int {
	return len(t.rows(partition))
}

// Partitions returns the partition keys in sorted order.
func (t *RefTable) Partitions() []string {
	var out []string
	for _, p := range t.parts {
		out = append(out, p.name)
	}
	return out
}

// At returns key's properties as of seq (ok is false if it was absent).
func (h *History) At(key Key, seq int64) (props Properties, ok bool) {
	base, _ := window(h.versions(key), seq, seq)
	return base.props, base.present
}

// Phase returns the cached phase of a partition, refreshing it if needed.
func (mt *MigratingTable) Phase(partition string) (Phase, error) {
	c, err := mt.ensureCache(partition)
	if err != nil {
		return 0, err
	}
	return c.phase, nil
}

// Done reports whether the migration has completed.
func (m *Migrator) Done() bool { return m.state == msDone }
