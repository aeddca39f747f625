package mtable

import (
	"errors"
	"testing"
)

// Multi-operation batches must stay atomic through the migration
// translation: either every operation's effect is visible or none is,
// with outcomes identical to the reference table at every migration stage.

func applyBatch(t *testing.T, e *seqEnv, specs []opSpec) {
	t.Helper()
	vtOps := make([]Operation, len(specs))
	rtOps := make([]Operation, len(specs))
	for i, s := range specs {
		vtOps[i] = buildOp(s, e.vtETags)
		rtOps[i] = buildOp(s, e.rtETags)
	}
	vtRes, vtErr := e.mt.ExecuteBatch(vtOps)
	rtRes, rtErr := e.rt.ExecuteBatch(nil, rtOps)
	if ErrorCode(vtErr) != ErrorCode(rtErr) {
		t.Fatalf("batch %v diverged: vt=%v rt=%v", specs, vtErr, rtErr)
	}
	if vtErr != nil {
		return
	}
	for i, s := range specs {
		switch s.kind {
		case OpDelete:
			delete(e.vtETags, s.row)
			delete(e.rtETags, s.row)
		case OpCheck:
		default:
			e.vtETags[s.row] = vtRes[i].ETag
			e.rtETags[s.row] = rtRes[i].ETag
		}
	}
}

func TestVTBatchAtomicSuccessAcrossMigration(t *testing.T) {
	for steps := 0; steps <= 20; steps += 4 {
		e := newSeqEnv(t, 0, seedRows())
		e.step(steps)
		applyBatch(t, e, []opSpec{
			{kind: OpReplace, row: "r1", val: 100, etag: "current"},
			{kind: OpInsert, row: "r4", val: 40},
			{kind: OpDelete, row: "r2", etag: "any"},
		})
		e.compareQuery(Query{Partition: "P"})
	}
}

func TestVTBatchAtomicFailureAcrossMigration(t *testing.T) {
	for steps := 0; steps <= 20; steps += 4 {
		e := newSeqEnv(t, 0, seedRows())
		e.step(steps)
		// Second op fails (insert of an existing row): the replace must
		// not take effect on either side.
		applyBatch(t, e, []opSpec{
			{kind: OpReplace, row: "r1", val: 100, etag: "any"},
			{kind: OpInsert, row: "r2", val: 1}, // exists
		})
		e.compareQuery(Query{Partition: "P"})
		// r1 must still carry its seeded value on both sides.
		rows, err := e.mt.QueryAtomic(Query{Partition: "P", RowFrom: "r1", RowTo: "r1"})
		if err != nil || len(rows) != 1 {
			t.Fatalf("steps=%d: r1 query: %v %v", steps, rows, err)
		}
		if val(rows[0].Props, "v") == 100 {
			t.Fatalf("steps=%d: failed batch leaked a write", steps)
		}
	}
}

func TestVTBatchMixedResidency(t *testing.T) {
	// One batch touching a new-table resident, an old-table resident and
	// a fresh key, mid-copy: the single guarded backend batch must keep
	// them atomic.
	e := newSeqEnv(t, 0, seedRows())
	e.step(2) // PreferNew, before the copy pass
	// Make r1 new-resident.
	e.apply(opSpec{kind: OpReplace, row: "r1", val: 11, etag: "any"})
	applyBatch(t, e, []opSpec{
		{kind: OpMerge, row: "r1", val: 12, etag: "current"},   // new-resident
		{kind: OpReplace, row: "r2", val: 22, etag: "current"}, // old-resident promotion
		{kind: OpInsert, row: "r5", val: 55},                   // fresh
		{kind: OpCheck, row: "r3", etag: "current"},            // old-resident check
	})
	e.compareQuery(Query{Partition: "P"})
	e.finish()
	e.compareQuery(Query{Partition: "P"})
}

func TestVTBatchDuplicateRowRejected(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	_, err := e.mt.ExecuteBatch([]Operation{
		{Kind: OpMerge, Key: Key{"P", "r1"}, Props: props(1), ETag: ETagAny},
		{Kind: OpDelete, Key: Key{"P", "r1"}, ETag: ETagAny},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("duplicate-row batch accepted: %v", err)
	}
}

func TestVTLargeBatchWithinLimit(t *testing.T) {
	e := newSeqEnv(t, 0, nil)
	var ops []Operation
	for i := 0; i < 20; i++ {
		ops = append(ops, Operation{
			Kind:  OpInsert,
			Key:   Key{"P", string(rune('a' + i))},
			Props: Props(Prop{"v", int64(i)}),
		})
	}
	if _, err := e.mt.ExecuteBatch(ops); err != nil {
		t.Fatalf("20-op batch failed: %v", err)
	}
	rows, err := e.mt.QueryAtomic(Query{Partition: "P"})
	if err != nil || len(rows) != 20 {
		t.Fatalf("rows after large batch: %d %v", len(rows), err)
	}
}
