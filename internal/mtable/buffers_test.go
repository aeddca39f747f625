package mtable

import (
	"math/rand"
	"reflect"
	"testing"
)

// scribble overwrites every element of s's backing array, up to its
// capacity, with junk.
func scribble[T any](s []T, junk T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = junk
	}
}

var (
	junkRow = Row{Key: Key{"P", "junk"}, Props: Props(Prop{"v", -1}), ETag: -1}
	junkOp  = Operation{Kind: OpDelete, Key: Key{"P", "junk"}, ETag: ETagAny}
	junkRes = OpResult{ETag: -1}
)

// TestBuffersAreNotKept holds the buffer reuse of the backend interface
// (see Backend) to its premise: no table keeps a slice it is handed or
// answers into. Every buffer a RefTable, a MigratingTable or a Migrator
// reuses — a caller's batch, read and result buffers, the instance's
// pre-read, point-read, batch and result buffers, the migrator's metadata
// read, batch and result — is overwritten with junk after every call, and
// the tables must answer as if nothing happened: a RefTable keeps its
// rows, and a MigratingTable driven across a whole migration stays
// indistinguishable from the reference table.
func TestBuffersAreNotKept(t *testing.T) {
	t.Run("RefTable", func(t *testing.T) {
		tbl := NewRefTable()
		batch := []Operation{{Kind: OpInsert, Key: key("a"), Props: props(1)}, {Kind: OpInsert, Key: key("b"), Props: props(2)}}
		res, err := tbl.ExecuteBatch(make([]OpResult, 0, 4), batch)
		if err != nil || len(res) != 2 {
			t.Fatalf("ExecuteBatch: %v, %v", res, err)
		}
		want := tableState(tbl)
		scribble(batch, junkOp)
		scribble(res, junkRes)
		buf := make([]Row, 0, 4)
		rows, _ := tbl.QueryAtomic(buf, Query{Partition: "P"})
		scribble(rows, junkRow)
		page, _ := tbl.FetchPage(buf, "P", "a", nil, 1)
		scribble(page, junkRow)
		if got := tableState(tbl); !reflect.DeepEqual(got, want) {
			t.Fatalf("the table changed with the buffers it was handed:\n got %v\nwant %v", got, want)
		}
		again, _ := tbl.QueryAtomic(rows[:0], Query{Partition: "P"})
		fresh, _ := tbl.QueryAtomic(nil, Query{Partition: "P"})
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("a read into a reused buffer answered %v, a fresh one %v", again, fresh)
		}
	})
	t.Run("MigratingTable", func(t *testing.T) {
		rows := []string{"r1", "r2", "r3", "r4"}
		kinds := []OpKind{OpInsert, OpReplace, OpMerge, OpDelete, OpInsertOrReplace, OpInsertOrMerge, OpCheck}
		etags := []string{"any", "current", "stale"}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := newSeqEnv(t, 0, seedRows())
			var vtBatch, rtBatch [1]Operation
			junk := func() {
				scribble(vtBatch[:], junkOp)
				scribble(rtBatch[:], junkOp)
				mt := e.mt
				scribble(mt.oldRows, junkRow)
				scribble(mt.newRows, junkRow)
				scribble(mt.pointRows, junkRow)
				scribble(mt.ops, junkOp)
				scribble(mt.results, junkRes)
				scribble(e.mig.meta, junkRow)
				scribble(e.mig.op[:], junkOp)
				scribble(e.mig.results, junkRes)
			}
			for i := 0; i < 30; i++ {
				if rng.Intn(3) == 0 {
					e.step(1 + rng.Intn(4))
					junk()
				}
				s := opSpec{kind: kinds[rng.Intn(len(kinds))], row: rows[rng.Intn(len(rows))], val: int64(rng.Intn(100)), etag: etags[rng.Intn(len(etags))]}
				vtBatch[0], rtBatch[0] = buildOp(s, e.vtETags), buildOp(s, e.rtETags)
				vtRes, vtErr := e.mt.ExecuteBatch(vtBatch[:])
				rtRes, rtErr := e.rt.ExecuteBatch(nil, rtBatch[:])
				if ErrorCode(vtErr) != ErrorCode(rtErr) {
					t.Fatalf("seed %d: op %+v diverged: vt=%v rt=%v", seed, s, vtErr, rtErr)
				}
				if vtErr == nil && s.kind != OpCheck {
					if s.kind == OpDelete {
						delete(e.vtETags, s.row)
						delete(e.rtETags, s.row)
					} else {
						e.vtETags[s.row], e.rtETags[s.row] = vtRes[0].ETag, rtRes[0].ETag
					}
				}
				junk()
				if rng.Intn(3) == 0 {
					e.compareQuery(Query{Partition: "P"})
					junk()
				}
				if rng.Intn(4) == 0 {
					e.compareStream()
					junk()
				}
			}
			e.finish()
			junk()
			e.compareQuery(Query{Partition: "P"})
		}
	})
}

// compareStream asserts that a stream over the quiescent partition reads
// what the oracle holds.
func (e *seqEnv) compareStream() {
	e.t.Helper()
	s, err := e.mt.QueryStream(Query{Partition: "P"})
	if err != nil {
		e.t.Fatal(err)
	}
	defer s.Close()
	var got []Row
	for {
		row, ok, err := s.Next()
		if err != nil {
			e.t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row)
	}
	want, _ := e.rt.QueryAtomic(nil, Query{Partition: "P"})
	if err := sameRows(got, want); err != nil {
		e.t.Fatalf("stream diverged: %v\nvt=%v\nrt=%v", err, got, want)
	}
}
