package mtable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// seqEnv drives a MigratingTable and the reference oracle side by side,
// sequentially (no runtime involved): the foundation tests for the
// migration protocol itself.
type seqEnv struct {
	t         *testing.T
	old, new  *RefTable
	rt        *RefTable
	guard     *StreamGuard
	mt        *MigratingTable
	mig       *Migrator
	vtETags   map[string]int64
	rtETags   map[string]int64
	partition string
}

func newSeqEnv(t *testing.T, bugs Bugs, seed map[string]map[string]int64) *seqEnv {
	t.Helper()
	e := &seqEnv{
		t:         t,
		old:       NewRefTable(),
		new:       NewRefTable(),
		rt:        NewRefTable(),
		guard:     NewStreamGuard(),
		vtETags:   map[string]int64{},
		rtETags:   map[string]int64{},
		partition: "P",
	}
	if err := InitializeMigration(e.old, e.new, e.partition); err != nil {
		t.Fatal(err)
	}
	// Seed pre-migration data into the old table (with virtual etags, as
	// production data would carry) and into the oracle.
	i := int64(0)
	for row, cols := range seed {
		i++
		vetag := int64(7)<<32 | i
		p := PropsFromMap(cols)
		backend := SeedBackendRow(p, vetag)
		if _, err := e.old.ExecuteBatch(nil, []Operation{{Kind: OpInsert, Key: Key{e.partition, row}, Props: backend}}); err != nil {
			t.Fatal(err)
		}
		res, err := e.rt.ExecuteBatch(nil, []Operation{{Kind: OpInsert, Key: Key{e.partition, row}, Props: p}})
		if err != nil {
			t.Fatal(err)
		}
		e.vtETags[row] = vetag
		e.rtETags[row] = res[0].ETag
	}
	e.mt = NewMigratingTable(e.old, e.new, e.guard, 1, bugs, NopReporter)
	e.mig = NewMigrator(e.old, e.new, e.guard, e.partition, bugs)
	return e
}

// step advances the migrator n steps (ignoring waits).
func (e *seqEnv) step(n int) {
	for i := 0; i < n && !e.mig.Done(); i++ {
		if _, err := e.mig.Step(); err != nil {
			e.t.Fatalf("migrator step: %v", err)
		}
	}
}

// finish drives the migration to completion.
func (e *seqEnv) finish() {
	for !e.mig.Done() {
		if e.guard.Active() > 0 {
			e.t.Fatal("finish called with open streams")
		}
		if _, err := e.mig.Step(); err != nil {
			e.t.Fatalf("migrator: %v", err)
		}
	}
}

// opSpec is a declarative logical operation for equivalence tests.
type opSpec struct {
	kind OpKind
	row  string
	val  int64
	// etag: "none" (unconditional kinds), "any", "current", "stale"
	etag string
}

// buildOp renders the spec against one side's etag map.
func buildOp(s opSpec, etags map[string]int64) Operation {
	op := Operation{Kind: s.kind, Key: Key{"P", s.row}}
	if s.kind != OpDelete && s.kind != OpCheck {
		op.Props = Props(Prop{"v", s.val})
	}
	switch s.etag {
	case "any":
		op.ETag = ETagAny
	case "current":
		if e, ok := etags[s.row]; ok {
			op.ETag = e
		} else {
			op.ETag = ETagAny
		}
	case "stale":
		op.ETag = 999999999 // never a real etag on either side
	}
	return op
}

// apply runs the spec on both sides and asserts equivalent outcomes.
func (e *seqEnv) apply(s opSpec) {
	e.t.Helper()
	vtRes, vtErr := e.mt.ExecuteBatch([]Operation{buildOp(s, e.vtETags)})
	rtRes, rtErr := e.rt.ExecuteBatch(nil, []Operation{buildOp(s, e.rtETags)})
	if ErrorCode(vtErr) != ErrorCode(rtErr) {
		e.t.Fatalf("op %+v diverged: vt=%v rt=%v", s, vtErr, rtErr)
	}
	if vtErr == nil {
		switch s.kind {
		case OpDelete:
			delete(e.vtETags, s.row)
			delete(e.rtETags, s.row)
		case OpCheck:
		default:
			e.vtETags[s.row] = vtRes[0].ETag
			e.rtETags[s.row] = rtRes[0].ETag
		}
	}
}

// compareQuery asserts the virtual table and oracle agree on a query.
func (e *seqEnv) compareQuery(q Query) {
	e.t.Helper()
	vtRows, err := e.mt.QueryAtomic(q)
	if err != nil {
		e.t.Fatalf("vt query: %v", err)
	}
	rtRows, err := e.rt.QueryAtomic(nil, q)
	if err != nil {
		e.t.Fatalf("rt query: %v", err)
	}
	if err := sameRows(vtRows, rtRows); err != nil {
		e.t.Fatalf("query %+v diverged: %v\nvt=%v\nrt=%v", q, err, vtRows, rtRows)
	}
}

// sameRows compares keys and properties (etags are incomparable across
// sides by design).
func sameRows(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Errorf("row %d: keys %v vs %v", i, a[i].Key, b[i].Key)
		}
		if !a[i].Props.Equal(b[i].Props) {
			return fmt.Errorf("row %d (%v): props %v vs %v", i, a[i].Key, a[i].Props, b[i].Props)
		}
	}
	return nil
}

func seedRows() map[string]map[string]int64 {
	return map[string]map[string]int64{
		"r1": {"v": 10},
		"r2": {"v": 20},
		"r3": {"v": 30},
	}
}

func TestVTBasicOpsBeforeMigration(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	e.compareQuery(Query{Partition: "P"})
	e.apply(opSpec{kind: OpInsert, row: "r4", val: 40})
	e.apply(opSpec{kind: OpInsert, row: "r4", val: 41}) // exists on both
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 11, etag: "current"})
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 12, etag: "stale"}) // conflict on both
	e.apply(opSpec{kind: OpMerge, row: "r2", val: 21, etag: "any"})
	e.apply(opSpec{kind: OpDelete, row: "r3", etag: "current"})
	e.apply(opSpec{kind: OpDelete, row: "r3", etag: "any"}) // notfound on both
	e.apply(opSpec{kind: OpInsertOrReplace, row: "r5", val: 50})
	e.apply(opSpec{kind: OpInsertOrMerge, row: "r5", val: 51})
	e.compareQuery(Query{Partition: "P"})
	if ph, _ := e.mt.Phase("P"); ph != PhasePreferOld {
		t.Fatalf("phase = %v", ph)
	}
}

func TestVTOpsAcrossFullMigration(t *testing.T) {
	// Interleave logical operations with migrator progress at several
	// boundaries.
	ops := []opSpec{
		{kind: OpReplace, row: "r1", val: 11, etag: "current"},
		{kind: OpDelete, row: "r2", etag: "any"},
		{kind: OpInsert, row: "r2", val: 22},
		{kind: OpMerge, row: "r3", val: 33, etag: "current"},
		{kind: OpInsert, row: "r4", val: 44},
		{kind: OpDelete, row: "r4", etag: "current"},
		{kind: OpInsertOrMerge, row: "r5", val: 55},
		{kind: OpReplace, row: "r5", val: 56, etag: "stale"},
	}
	for steps := 0; steps <= 20; steps += 2 {
		e := newSeqEnv(t, 0, seedRows())
		e.step(steps)
		for _, s := range ops {
			e.apply(s)
			e.compareQuery(Query{Partition: "P"})
		}
		e.finish()
		for _, s := range ops {
			e.apply(s)
		}
		e.compareQuery(Query{Partition: "P"})
		if ph, _ := e.mt.Phase("P"); ph != PhaseUseNew {
			t.Fatalf("steps=%d: final phase %v", steps, ph)
		}
	}
}

func TestVTQueriesWithFiltersAcrossMigration(t *testing.T) {
	for steps := 0; steps <= 18; steps += 3 {
		e := newSeqEnv(t, 0, seedRows())
		e.apply(opSpec{kind: OpReplace, row: "r1", val: 100, etag: "any"})
		e.step(steps)
		e.apply(opSpec{kind: OpReplace, row: "r2", val: 100, etag: "any"})
		filter := &Filter{Prop: "v", Min: 50, Max: 150}
		e.compareQuery(Query{Partition: "P", Filter: filter})
		e.compareQuery(Query{Partition: "P", RowFrom: "r2", RowTo: "r3"})
		e.compareQuery(Query{Partition: "P", RowFrom: "r2", RowTo: "r3", Filter: filter})
	}
}

func TestVTTwoInstancesStayConsistent(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	mt2 := NewMigratingTable(e.old, e.new, e.guard, 2, 0, NopReporter)
	// Instance 1 writes before migration; instance 2 reads during it.
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 77, etag: "any"})
	e.step(6) // into the copy pass
	rows, err := mt2.QueryAtomic(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	rtRows, _ := e.rt.QueryAtomic(nil, Query{Partition: "P"})
	if err := sameRows(rows, rtRows); err != nil {
		t.Fatalf("instance 2 diverged: %v", err)
	}
	e.finish()
	// Instance 1's cache is stale (PreferOld); its next op must still be
	// correct thanks to the metadata guards.
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 78, etag: "current"})
	e.compareQuery(Query{Partition: "P"})
}

func TestVTStreamMatchesOracleWhenQuiescent(t *testing.T) {
	for steps := 0; steps <= 20; steps += 2 {
		e := newSeqEnv(t, 0, seedRows())
		e.apply(opSpec{kind: OpDelete, row: "r2", etag: "any"})
		e.apply(opSpec{kind: OpInsert, row: "r4", val: 40})
		e.step(steps)
		s, err := e.mt.QueryStream(Query{Partition: "P"})
		if err != nil {
			t.Fatal(err)
		}
		var got []Row
		for {
			row, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, row)
		}
		s.Close()
		rtRows, _ := e.rt.QueryAtomic(nil, Query{Partition: "P"})
		if err := sameRows(got, rtRows); err != nil {
			t.Fatalf("steps=%d: stream diverged: %v (got %v, want %v)", steps, err, got, rtRows)
		}
	}
}

// TestVTStreamSurvivesConcurrentMigration interleaves migrator steps
// between stream reads: migration must be invisible to the stream.
func TestVTStreamSurvivesConcurrentMigration(t *testing.T) {
	for lag := 0; lag <= 4; lag++ {
		e := newSeqEnv(t, 0, map[string]map[string]int64{
			"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}, "d": {"v": 4}, "e": {"v": 5}, "f": {"v": 6},
		})
		s, err := e.mt.QueryStream(Query{Partition: "P"})
		if err != nil {
			t.Fatal(err)
		}
		var got []Row
		for {
			e.step(lag) // migrator advances between reads (blocks at the stream wait)
			row, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, row)
		}
		s.Close()
		e.finish()
		rtRows, _ := e.rt.QueryAtomic(nil, Query{Partition: "P"})
		if err := sameRows(got, rtRows); err != nil {
			t.Fatalf("lag=%d: stream diverged: %v (got %v)", lag, err, got)
		}
	}
}

// TestVTEquivalenceProperty drives random operation sequences with random
// migrator interleaving and asserts the virtual table is indistinguishable
// from the oracle.
func TestVTEquivalenceProperty(t *testing.T) {
	rows := []string{"r1", "r2", "r3", "r4"}
	kinds := []OpKind{OpInsert, OpReplace, OpMerge, OpDelete, OpInsertOrReplace, OpInsertOrMerge, OpCheck}
	etags := []string{"any", "current", "stale"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newSeqEnv(t, 0, seedRows())
		for i := 0; i < 25; i++ {
			if rng.Intn(3) == 0 {
				e.step(1 + rng.Intn(4))
			}
			s := opSpec{
				kind: kinds[rng.Intn(len(kinds))],
				row:  rows[rng.Intn(len(rows))],
				val:  int64(rng.Intn(100)),
				etag: etags[rng.Intn(len(etags))],
			}
			e.apply(s)
			if rng.Intn(4) == 0 {
				e.compareQuery(Query{Partition: "P"})
			}
		}
		e.finish()
		e.compareQuery(Query{Partition: "P"})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVTRejectsReservedNames(t *testing.T) {
	e := newSeqEnv(t, 0, nil)
	_, err := e.mt.ExecuteBatch([]Operation{{Kind: OpInsert, Key: Key{"P", "!meta"}, Props: props(1)}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reserved row accepted: %v", err)
	}
	_, err = e.mt.ExecuteBatch([]Operation{{Kind: OpInsert, Key: Key{"P", "r9"}, Props: Props(Prop{"_tombstone", 1})}})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reserved prop accepted: %v", err)
	}
}
