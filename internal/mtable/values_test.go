package mtable

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// TestStoredRowsAreIsolated: rows are shared, never cloned, so nothing a
// caller still holds may reach what a table or history stored. Payloads
// are built from a caller-owned slice and a caller-owned map, the sources
// are scribbled on after every hand-over, and the stored state, a second
// read and History.At must not notice.
func TestStoredRowsAreIsolated(t *testing.T) {
	pairs := []Prop{{"b", 2}, {"a", 1}}
	cols := map[string]int64{"a": 1, "b": 2}
	fromSlice, fromMap := Props(pairs...), PropsFromMap(cols)
	want := props(1, 2) // {"a": 1, "b": 2}
	scribble := func() {
		pairs[0], pairs[1] = Prop{"a", 99}, Prop{"zz", 7}
		cols["a"], cols["zz"] = 99, 7
		delete(cols, "b")
	}
	check := func(when string, got Properties) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s: stored payload is %v, want %v", when, got, want)
		}
	}

	tbl, hist := NewRefTable(), NewHistory()
	mustBatch(t, tbl,
		Operation{Kind: OpInsert, Key: key("r1"), Props: fromSlice},
		Operation{Kind: OpInsert, Key: key("r2"), Props: fromMap})
	scribble()
	for _, r := range []string{"r1", "r2"} {
		row, _ := tbl.Get(key(r))
		check("after ExecuteBatch, "+r, row.Props)
	}

	// A query's slice is the caller's own: emptying it changes no table.
	rows, err := tbl.QueryAtomic(nil, Query{Partition: "P"})
	if err != nil || len(rows) != 2 {
		t.Fatalf("query: %v %v", rows, err)
	}
	hist.Record(1, key("r1"), rows[0].Props)
	rows[0], rows[1] = Row{}, Row{Key: key("r1"), Props: props(5)}
	scribble()
	page, err := tbl.FetchPage(nil, "P", "", nil, 10)
	if err != nil || len(page) != 2 {
		t.Fatalf("page: %v %v", page, err)
	}
	page[0] = Row{}
	again, _ := tbl.QueryAtomic(nil, Query{Partition: "P"})
	if len(again) != 2 || again[0].Key != key("r1") || again[1].Key != key("r2") {
		t.Fatalf("second read after scribbling on the first: %v", again)
	}
	check("second read, r1", again[0].Props)
	check("second read, r2", again[1].Props)
	at, ok := hist.At(key("r1"), 1)
	if !ok {
		t.Fatal("history lost r1")
	}
	check("History.At", at)

	// With, Without and Merge build new values; Without may share the
	// receiver's array, so a With on its result must not write through.
	p := again[0].Props
	p.With("a", 5)
	p.With("c", 3)
	p.Merge(props(7, 8, 9))
	head, tail := p.Without("b"), p.Without("a")
	head.With("b", 42)
	head.With("zz", 1)
	tail.With("a", 42)
	check("receiver of With/Without/Merge", p)
	if !head.Equal(props(1)) || tail.Len() != 1 || val(tail, "b") != 2 {
		t.Fatalf("Without: %v and %v", head, tail)
	}
	merged, _ := tbl.Get(key("r1"))
	mustBatch(t, tbl, Operation{Kind: OpMerge, Key: key("r1"), Props: props(6), ETag: ETagAny})
	check("a row read before a merge into it", merged.Props)
}

// TestPropertiesAgreeWithMapModel drives Properties and the map it
// replaced through the same random edits: same contents, same equality,
// and the same rendering (violation messages quote payloads with %v, and
// the schedule goldens pin those messages).
func TestPropertiesAgreeWithMapModel(t *testing.T) {
	names := []string{"_vetag", "_tombstone", "A", "a", "b", "v", "zz"}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		p, model := Properties{}, map[string]int64{}
		for step := 0; step < 12; step++ {
			name, v := names[rng.Intn(len(names))], int64(rng.Intn(4))
			switch rng.Intn(4) {
			case 0, 1:
				p, model[name] = p.With(name, v), v
			case 2:
				p = p.Without(name)
				delete(model, name)
			default:
				other := map[string]int64{name: v, names[rng.Intn(len(names))]: v + 1}
				p = p.Merge(PropsFromMap(other))
				maps.Copy(model, other)
			}
			if got, want := p.String(), fmt.Sprint(model); got != want {
				t.Fatalf("round %d step %d: %s, map model %s", round, step, got, want)
			}
			if !p.Equal(PropsFromMap(model)) || p.Len() != len(model) {
				t.Fatalf("round %d step %d: %v differs from its model %v", round, step, p, model)
			}
			for n, v := range p.All() {
				if mv, ok := model[n]; !ok || mv != v {
					t.Fatalf("round %d step %d: column %s=%d not in model %v", round, step, n, v, model)
				}
			}
			strip := maps.Clone(model)
			delete(strip, vetagProp)
			delete(strip, tombstoneProp)
			if got := userProps(p); !got.Equal(PropsFromMap(strip)) {
				t.Fatalf("round %d step %d: userProps(%v) = %v", round, step, p, got)
			}
		}
	}
}
