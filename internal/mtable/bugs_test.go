package mtable

import (
	"errors"
	"testing"
)

// These tests reproduce, sequentially and deterministically, the bug
// mechanisms that the systematic-testing harness later has to *discover*
// through schedule exploration. Each test drives the exact triggering
// sequence and checks both that the seeded bug manifests and that the
// fixed code does not.

func TestBugNamesRoundTrip(t *testing.T) {
	if len(AllBugs()) != 11 {
		t.Fatalf("expected the 11 bugs of Table 2, got %d", len(AllBugs()))
	}
	for _, name := range AllBugs() {
		flag, ok := BugByName(name)
		if !ok || !flag.Has(flag) {
			t.Fatalf("bug %q does not round trip", name)
		}
		if flag.String() != name {
			t.Fatalf("flag renders as %q, want %q", flag.String(), name)
		}
	}
	if _, ok := BugByName("NotABug"); ok {
		t.Fatal("unknown bug resolved")
	}
	combo := BugDeletePrimaryKey | BugQueryStreamedLock
	if combo.String() != "QueryStreamedLock+DeletePrimaryKey" {
		t.Fatalf("combo renders as %q", combo.String())
	}
}

// queryRows is a helper returning the VT's current view.
func queryRows(t *testing.T, e *seqEnv) []Row {
	t.Helper()
	rows, err := e.mt.QueryAtomic(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestBugDeletePrimaryKeyManifests(t *testing.T) {
	e := newSeqEnv(t, BugDeletePrimaryKey, seedRows())
	e.step(2) // into PreferNew: deletes of old-resident rows tombstone
	vtOp := buildOp(opSpec{kind: OpDelete, row: "r1", etag: "any"}, e.vtETags)
	if _, err := e.mt.ExecuteBatch([]Operation{vtOp}); err != nil {
		t.Fatalf("delete failed: %v", err)
	}
	// The corrupted tombstone key leaves the old row visible.
	for _, r := range queryRows(t, e) {
		if r.Key.Row == "r1" {
			return // bug manifested: deleted row still visible
		}
	}
	t.Fatal("deleted row vanished — the seeded bug did not manifest")
}

func TestDeletePrimaryKeyFixedIsClean(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	e.step(2)
	e.apply(opSpec{kind: OpDelete, row: "r1", etag: "any"})
	for _, r := range queryRows(t, e) {
		if r.Key.Row == "r1" {
			t.Fatal("fixed delete left the row visible")
		}
	}
}

func TestBugTombstoneOutputETagManifests(t *testing.T) {
	e := newSeqEnv(t, BugTombstoneOutputETag, seedRows())
	e.step(2) // PreferNew
	// Delete then re-insert the same key: the insert replaces a tombstone.
	if _, err := e.mt.ExecuteBatch([]Operation{buildOp(opSpec{kind: OpDelete, row: "r1", etag: "any"}, e.vtETags)}); err != nil {
		t.Fatal(err)
	}
	// The delete was against an old-resident row: tombstone inserted. A
	// second delete+insert cycle on a new-table resident exercises the
	// replace-tombstone path.
	res, err := e.mt.ExecuteBatch([]Operation{{Kind: OpInsert, Key: Key{"P", "r1"}, Props: Props(Prop{"v", 5})}})
	if err != nil {
		t.Fatal(err)
	}
	staleETag := res[0].ETag
	// Using the returned etag must work; with the bug it is the
	// tombstone's stale backend etag, so the conditional op fails.
	_, err = e.mt.ExecuteBatch([]Operation{{Kind: OpReplace, Key: Key{"P", "r1"}, Props: Props(Prop{"v", 6}), ETag: staleETag}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("expected stale-etag conflict under the bug, got %v", err)
	}
}

func TestTombstoneOutputETagFixedIsClean(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	e.step(2)
	if _, err := e.mt.ExecuteBatch([]Operation{buildOp(opSpec{kind: OpDelete, row: "r1", etag: "any"}, e.vtETags)}); err != nil {
		t.Fatal(err)
	}
	res, err := e.mt.ExecuteBatch([]Operation{{Kind: OpInsert, Key: Key{"P", "r1"}, Props: Props(Prop{"v", 5})}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.mt.ExecuteBatch([]Operation{{Kind: OpReplace, Key: Key{"P", "r1"}, Props: Props(Prop{"v", 6}), ETag: res[0].ETag}}); err != nil {
		t.Fatalf("returned etag rejected on fixed code: %v", err)
	}
}

func TestBugQueryAtomicFilterShadowingManifests(t *testing.T) {
	e := newSeqEnv(t, BugQueryAtomicFilterShadowing, seedRows())
	e.step(2) // PreferNew: updates land in the new table
	// r1 starts at v=10 (matches filter); update it to v=500 (fails it).
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 500, etag: "any"})
	filter := &Filter{Prop: "v", Min: 0, Max: 100}
	rows, err := e.mt.QueryAtomic(Query{Partition: "P", Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Key.Row == "r1" {
			if val(r.Props, "v") != 10 {
				t.Fatalf("unexpected r1 contents: %v", r.Props)
			}
			return // stale shadowed row leaked: bug manifested
		}
	}
	t.Fatal("stale row did not leak — the seeded bug did not manifest")
}

func TestQueryAtomicFilterShadowingFixedIsClean(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	e.step(2)
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 500, etag: "any"})
	e.compareQuery(Query{Partition: "P", Filter: &Filter{Prop: "v", Min: 0, Max: 100}})
}

func TestBugEnsurePartitionSwitchedManifests(t *testing.T) {
	e := newSeqEnv(t, BugEnsurePartitionSwitchedFromPopulated, seedRows())
	// Warm the MT's cache in PhasePreferOld.
	e.compareQuery(Query{Partition: "P"})
	// The (correct) migrator switches the partition and runs the copy
	// pass (start + flip + snapshot + 3 copies), but not the delete pass.
	mig := NewMigrator(e.old, e.new, NewStreamGuard(), "P", 0)
	for i := 0; i < 6 && !mig.Done(); i++ {
		if _, err := mig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// The stale-cached client writes without the guard: the write lands in
	// the old table after the copy pass and is lost.
	if _, err := e.mt.ExecuteBatch([]Operation{{Kind: OpReplace, Key: Key{"P", "r1"}, Props: Props(Prop{"v", 777}), ETag: ETagAny}}); err != nil {
		t.Fatalf("stale write failed outright: %v", err)
	}
	fresh := NewMigratingTable(e.old, e.new, e.guard, 3, 0, NopReporter)
	rows, err := fresh.QueryAtomic(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Key.Row == "r1" && val(r.Props, "v") == 777 {
			t.Fatal("write survived — the seeded bug did not manifest")
		}
	}
}

func TestEnsurePartitionSwitchedFixedRedirects(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	e.compareQuery(Query{Partition: "P"}) // warm cache at PreferOld
	mig := NewMigrator(e.old, e.new, NewStreamGuard(), "P", 0)
	for i := 0; i < 12 && !mig.Done(); i++ {
		if _, err := mig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// The guard forces the stale client onto the new path.
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 777, etag: "any"})
	e.compareQuery(Query{Partition: "P"})
}

func TestBugMigrateSkipPreferOldManifests(t *testing.T) {
	e := newSeqEnv(t, BugMigrateSkipPreferOld, seedRows())
	e.compareQuery(Query{Partition: "P"}) // cache at PreferOld
	// Buggy migrator skips the old-meta flip; run it through the copy
	// pass (start + skipped flip + snapshot + 3 copies).
	e.step(6)
	// Correct client code, stale cache: its guard still passes, so the
	// write lands in the old table and disappears.
	if _, err := e.mt.ExecuteBatch([]Operation{{Kind: OpReplace, Key: Key{"P", "r1"}, Props: Props(Prop{"v", 888}), ETag: ETagAny}}); err != nil {
		t.Fatalf("stale write failed outright: %v", err)
	}
	fresh := NewMigratingTable(e.old, e.new, e.guard, 3, 0, NopReporter)
	rows, err := fresh.QueryAtomic(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Key.Row == "r1" && val(r.Props, "v") == 888 {
			t.Fatal("write survived — the seeded bug did not manifest")
		}
	}
}

func TestBugQueryStreamedLockManifests(t *testing.T) {
	runResurrection(t, BugQueryStreamedLock)
}

func TestBugMigrateSkipUseNewWithTombstonesManifests(t *testing.T) {
	runResurrection(t, BugMigrateSkipUseNewWithTombstones)
}

// resurrectionEnv builds the tombstone-cleanup race scenario: old table
// holds a, c, e; b and d are later new-table-only inserts; e is deleted
// (tombstoned). The new-table-only rows desynchronize the stream's two
// pagers so that "e" sits in a stale old-table page while its tombstone
// falls beyond the new pager's prefetched window.
func resurrectionEnv(t *testing.T, bugs Bugs) (*seqEnv, RowStream) {
	t.Helper()
	e := newSeqEnv(t, bugs, map[string]map[string]int64{
		"a": {"v": 1}, "c": {"v": 3}, "e": {"v": 5},
	})
	e.step(2) // PreferNew
	e.apply(opSpec{kind: OpInsert, row: "b", val: 2})
	e.apply(opSpec{kind: OpInsert, row: "d", val: 4})
	e.apply(opSpec{kind: OpDelete, row: "e", etag: "any"})
	s, err := e.mt.QueryStream(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	// Pull three rows (a, b, c): the old pager now buffers the stale
	// physical "e"; the new pager's buffer ends before e's tombstone.
	for _, want := range []string{"a", "b", "c"} {
		row, ok, err := s.Next()
		if err != nil || !ok || row.Key.Row != want {
			t.Fatalf("expected %q, got %v %v %v", want, row, ok, err)
		}
	}
	return e, s
}

// runResurrection reproduces the tombstone-cleanup race: when cleanup runs
// under a live stream (because the stream never registered with the guard,
// or the migrator skipped the wait), the deleted row "e" resurrects from
// the stale old-table page.
func runResurrection(t *testing.T, bugs Bugs) {
	t.Helper()
	e, s := resurrectionEnv(t, bugs)
	defer s.Close()
	// Run the migrator to completion. With the fix it would block at the
	// stream wait; with either seeded bug it charges through cleanup.
	for i := 0; i < 60 && !e.mig.Done(); i++ {
		if _, err := e.mig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !e.mig.Done() {
		t.Fatal("buggy migrator should have finished despite the open stream")
	}
	var emitted []string
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		emitted = append(emitted, row.Key.Row)
	}
	for _, k := range emitted {
		if k == "e" {
			return // resurrection observed: bug manifested
		}
	}
	t.Fatalf("deleted row did not resurrect (emitted %v) — the seeded bug did not manifest", emitted)
}

func TestCleanupWaitsForStreamsWhenFixed(t *testing.T) {
	e, s := resurrectionEnv(t, 0)
	for i := 0; i < 60 && !e.mig.Done(); i++ {
		if _, err := e.mig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.mig.Done() {
		t.Fatal("migrator finished despite an open registered stream")
	}
	// Drain and close; now it can finish, and "e" never resurfaced.
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row.Key.Row == "e" {
			t.Fatal("deleted row emitted by fixed stream")
		}
	}
	s.Close()
	e.finish()
}

func TestBugQueryStreamedBackUpNewStreamManifests(t *testing.T) {
	e := newSeqEnv(t, BugQueryStreamedBackUpNewStream, map[string]map[string]int64{
		"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}, "d": {"v": 4}, "e": {"v": 5}, "f": {"v": 6},
	})
	e.step(2) // PreferNew
	s, err := e.mt.QueryStream(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Pull one row; the new pager is now positioned past the keys the
	// migrator is about to copy.
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	// Migrator copies everything and deletes the old rows while the
	// stream is mid-flight (it does not reach cleanup: transition comes
	// after the delete pass, and we stop there).
	e.step(2 + 6 + 6) // snapshot + copy all + delete all
	var emitted []string
	emitted = append(emitted, "a")
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		emitted = append(emitted, row.Key.Row)
	}
	if len(emitted) == 6 {
		t.Fatalf("no row was lost (emitted %v) — the seeded bug did not manifest", emitted)
	}
}

func TestBackUpNewStreamFixedLosesNothing(t *testing.T) {
	e := newSeqEnv(t, 0, map[string]map[string]int64{
		"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}, "d": {"v": 4}, "e": {"v": 5}, "f": {"v": 6},
	})
	e.step(2)
	s, err := e.mt.QueryStream(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var emitted []string
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		emitted = append(emitted, row.Key.Row)
		e.step(3) // migrator marches while the stream runs
	}
	if len(emitted) != 6 {
		t.Fatalf("fixed stream lost rows: %v", emitted)
	}
}

func TestBugQueryStreamedFilterShadowingManifests(t *testing.T) {
	e := newSeqEnv(t, BugQueryStreamedFilterShadowing, seedRows())
	e.step(2) // PreferNew
	// Update r1 so its current value fails the filter; the old table
	// still holds the matching stale version.
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 500, etag: "any"})
	s, err := e.mt.QueryStream(Query{Partition: "P", Filter: &Filter{Prop: "v", Min: 0, Max: 100}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row.Key.Row == "r1" {
			return // r1 must not appear at all: bug manifested
		}
	}
	t.Fatal("filtered stream stayed clean — the seeded bug did not manifest")
}

func TestBugInsertBehindMigratorManifests(t *testing.T) {
	// The blind-upsert path needs the migrator to copy a row between the
	// insert's pre-reads and its commit; sequentially we approximate by
	// checking the translated behavior directly: an insert of a key that
	// exists only in the old table must fail, and with the bug the commit
	// op would be a blind upsert if the pre-read missed it. Simulate the
	// race by copying behind the pre-read via a second backend handle.
	e := newSeqEnv(t, BugInsertBehindMigrator, seedRows())
	e.step(2) // PreferNew
	// Delete r1 (tombstone), then insert r1: exercises replace-tombstone,
	// which is conditioned and safe even with the bug.
	e.apply(opSpec{kind: OpDelete, row: "r1", etag: "any"})
	e.apply(opSpec{kind: OpInsert, row: "r1", val: 9})
	e.compareQuery(Query{Partition: "P"})
	// The genuinely divergent interleaving is only reachable under
	// concurrent execution; the systematic-testing harness finds it.
}

func TestBugDeleteNoLeaveTombstonesEtagTranslation(t *testing.T) {
	// The wildcard-etag defect is only observable under a racing write;
	// here we pin the translated backend operation itself.
	mt := NewMigratingTable(NewRefTable(), NewRefTable(), NewStreamGuard(), 1, BugDeleteNoLeaveTombstonesEtag, NopReporter)
	op, _, _ := mt.translateNew(
		Operation{Kind: OpDelete, Key: Key{"P", "r"}, ETag: ETagAny},
		resident{inNew: true, vetag: 5, backend: 42},
		PhaseUseNewWithTombstones,
	)
	if op.Kind != OpDelete || op.ETag != ETagAny {
		t.Fatalf("buggy translation: %+v", op)
	}
	mtFixed := NewMigratingTable(NewRefTable(), NewRefTable(), NewStreamGuard(), 1, 0, NopReporter)
	op, _, _ = mtFixed.translateNew(
		Operation{Kind: OpDelete, Key: Key{"P", "r"}, ETag: ETagAny},
		resident{inNew: true, vetag: 5, backend: 42},
		PhaseUseNewWithTombstones,
	)
	if op.ETag != 42 {
		t.Fatalf("fixed translation must condition on the pre-read etag: %+v", op)
	}
}
