package mtable

import (
	"errors"
	"testing"
)

// These tests pin the agreed batch-error semantics of the chain-table
// spec: every precondition is evaluated against the pre-batch state in
// operation order, and the reported BatchError.Index is the LOWEST
// failing index. The harness oracle compares virtual-table and
// reference-table outcomes by exact (code, index) equality, which is only
// sound because both sides implement this same rule — the tests below
// keep that assumption executable instead of implicit.
//
// (The `conflict@1` vs `conflict@0` divergences once blamed on strict
// index comparison turned out to be a real hand-over protocol bug — see
// TestVTHandOverWindow below and harness/divergence_test.go — so the
// strict comparison stays.)

// failingBatches enumerates batches in which several operations fail at
// once against the seeded state {k0, k1, k2 present; k9 absent}, with the
// expected lowest failing index and code.
func failingBatches(cur map[string]int64) []struct {
	name  string
	batch []Operation
	index int
	err   error
} {
	stale := int64(1<<62 + 7)
	key := func(row string) Key { return Key{"P", row} }
	return []struct {
		name  string
		batch []Operation
		index int
		err   error
	}{
		{
			name: "two conflicts report the first",
			batch: []Operation{
				{Kind: OpReplace, Key: key("k0"), Props: Props(Prop{"v", int64(9)}), ETag: stale},
				{Kind: OpReplace, Key: key("k1"), Props: Props(Prop{"v", int64(9)}), ETag: stale},
			},
			index: 0, err: ErrConflict,
		},
		{
			name: "passing op before two conflicts",
			batch: []Operation{
				{Kind: OpCheck, Key: key("k0"), ETag: cur["k0"]},
				{Kind: OpDelete, Key: key("k1"), ETag: stale},
				{Kind: OpDelete, Key: key("k2"), ETag: stale},
			},
			index: 1, err: ErrConflict,
		},
		{
			name: "notfound before conflict",
			batch: []Operation{
				{Kind: OpMerge, Key: key("k9"), Props: Props(Prop{"v", int64(9)}), ETag: ETagAny},
				{Kind: OpMerge, Key: key("k2"), Props: Props(Prop{"v", int64(9)}), ETag: stale},
			},
			index: 0, err: ErrNotFound,
		},
		{
			name: "conflict before notfound",
			batch: []Operation{
				{Kind: OpMerge, Key: key("k2"), Props: Props(Prop{"v", int64(9)}), ETag: stale},
				{Kind: OpMerge, Key: key("k9"), Props: Props(Prop{"v", int64(9)}), ETag: ETagAny},
			},
			index: 0, err: ErrConflict,
		},
		{
			name: "exists before conflict",
			batch: []Operation{
				{Kind: OpInsert, Key: key("k1"), Props: Props(Prop{"v", int64(9)})},
				{Kind: OpReplace, Key: key("k2"), Props: Props(Prop{"v", int64(9)}), ETag: stale},
			},
			index: 0, err: ErrExists,
		},
	}
}

func checkBatchError(t *testing.T, name string, err error, wantIndex int, wantErr error) {
	t.Helper()
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("%s: want BatchError, got %v", name, err)
	}
	if be.Index != wantIndex || !errors.Is(be.Err, wantErr) {
		t.Errorf("%s: got index %d err %v, want index %d err %v", name, be.Index, be.Err, wantIndex, wantErr)
	}
}

// TestRefTableReportsLowestFailingIndex vets the reference implementation
// against the spec rule directly.
func TestRefTableReportsLowestFailingIndex(t *testing.T) {
	rt := NewRefTable()
	cur := map[string]int64{}
	for _, row := range []string{"k0", "k1", "k2"} {
		res, err := rt.ExecuteBatch(nil, []Operation{{Kind: OpInsert, Key: Key{"P", row}, Props: Props(Prop{"v", int64(1)})}})
		if err != nil {
			t.Fatal(err)
		}
		cur[row] = res[0].ETag
	}
	for _, tc := range failingBatches(cur) {
		_, err := rt.ExecuteBatch(nil, tc.batch)
		checkBatchError(t, tc.name, err, tc.index, tc.err)
	}
}

// TestVTReportsLowestFailingIndex runs the same multi-failure batches
// through the MigratingTable at every migration stage and requires the
// exact (code, index) the reference reports.
func TestVTReportsLowestFailingIndex(t *testing.T) {
	stages := []struct {
		name  string
		steps int
	}{
		{"before migration", 0},
		{"old frozen (hand-over window)", 1},
		{"both announced", 2},
		{"mid copy", 5},
		{"after migration", 1000},
	}
	for _, stage := range stages {
		t.Run(stage.name, func(t *testing.T) {
			e := newSeqEnv(t, 0, map[string]map[string]int64{
				"k0": {"v": int64(1)}, "k1": {"v": int64(1)}, "k2": {"v": int64(1)},
			})
			e.step(stage.steps)
			for _, tc := range failingBatches(e.vtETags) {
				// Same stale/any etags are valid on both sides; current
				// etags come from the side's own map.
				_, vtErr := e.mt.ExecuteBatch(tc.batch)
				checkBatchError(t, tc.name, vtErr, tc.index, tc.err)
			}
		})
	}
}

// TestVTHandOverWindow pins the hand-over fix at the unit level: with the
// migrator stopped exactly between freezing the old table and announcing
// in the new one, clients with both fresh and stale caches must converge
// (no retry exhaustion) and stay equivalent to the oracle.
func TestVTHandOverWindow(t *testing.T) {
	e := newSeqEnv(t, 0, map[string]map[string]int64{
		"k0": {"v": int64(1)}, "k1": {"v": int64(2)},
	})
	// Warm the client cache in PhasePreferOld, then freeze the old table.
	e.apply(opSpec{kind: OpMerge, row: "k0", val: 3, etag: "current"})
	e.step(1) // msFreezeOld done; msAnnounceNew NOT yet run

	// Stale-cache client writes: must re-route to the new path and match
	// the oracle.
	e.apply(opSpec{kind: OpReplace, row: "k1", val: 4, etag: "current"})
	e.apply(opSpec{kind: OpInsert, row: "k3", val: 5, etag: "none"})
	e.apply(opSpec{kind: OpDelete, row: "k0", etag: "current"})
	e.compareQuery(Query{Partition: "P"})

	// A second, cold-cache instance sees the window too.
	mt2 := NewMigratingTable(e.old, e.new, e.guard, 2, 0, NopReporter)
	rows, err := mt2.QueryAtomic(Query{Partition: "P"})
	if err != nil {
		t.Fatalf("cold-cache query in hand-over window: %v", err)
	}
	oracle, _ := e.rt.QueryAtomic(nil, Query{Partition: "P"})
	if len(rows) != len(oracle) {
		t.Fatalf("cold-cache query diverged: vt=%d rows, oracle=%d rows", len(rows), len(oracle))
	}

	// Finish the migration and confirm the end state still matches.
	e.finish()
	e.compareQuery(Query{Partition: "P"})
}
