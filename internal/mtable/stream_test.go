package mtable

import (
	"errors"
	"testing"
)

// Additional virtual-table stream coverage: ranges, filters, guard
// bookkeeping, and closed-stream behavior.

func collect(t *testing.T, s RowStream) []Row {
	t.Helper()
	var out []Row
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

func TestVTStreamRange(t *testing.T) {
	for steps := 0; steps <= 20; steps += 5 {
		e := newSeqEnv(t, 0, map[string]map[string]int64{
			"a": {"v": 1}, "b": {"v": 2}, "c": {"v": 3}, "d": {"v": 4},
		})
		e.step(steps)
		s, err := e.mt.QueryStream(Query{Partition: "P", RowFrom: "b", RowTo: "c"})
		if err != nil {
			t.Fatal(err)
		}
		rows := collect(t, s)
		s.Close()
		if len(rows) != 2 || rows[0].Key.Row != "b" || rows[1].Key.Row != "c" {
			t.Fatalf("steps=%d: range stream = %v", steps, rows)
		}
	}
}

func TestVTStreamFilter(t *testing.T) {
	e := newSeqEnv(t, 0, map[string]map[string]int64{
		"a": {"v": 1}, "b": {"v": 5}, "c": {"v": 2},
	})
	e.step(2)
	s, err := e.mt.QueryStream(Query{Partition: "P", Filter: &Filter{Prop: "v", Min: 1, Max: 2}})
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, s)
	s.Close()
	if len(rows) != 2 || rows[0].Key.Row != "a" || rows[1].Key.Row != "c" {
		t.Fatalf("filtered stream = %v", rows)
	}
}

func TestVTStreamGuardBookkeeping(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	if e.guard.Active() != 0 {
		t.Fatal("guard not idle initially")
	}
	s1, _ := e.mt.QueryStream(Query{Partition: "P"})
	s2, _ := e.mt.QueryStream(Query{Partition: "P"})
	if e.guard.Active() != 2 {
		t.Fatalf("active = %d, want 2", e.guard.Active())
	}
	s1.Close()
	s1.Close() // idempotent
	if e.guard.Active() != 1 {
		t.Fatalf("active after close = %d, want 1", e.guard.Active())
	}
	s2.Close()
	if e.guard.Active() != 0 {
		t.Fatalf("active after both closed = %d", e.guard.Active())
	}
}

func TestVTStreamClosedNextFails(t *testing.T) {
	e := newSeqEnv(t, 0, seedRows())
	s, _ := e.mt.QueryStream(Query{Partition: "P"})
	s.Close()
	_, _, err := s.Next()
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("next on closed stream: %v", err)
	}
}

func TestVTStreamEmptyPartition(t *testing.T) {
	e := newSeqEnv(t, 0, nil)
	s, err := e.mt.QueryStream(Query{Partition: "P"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rows := collect(t, s); len(rows) != 0 {
		t.Fatalf("empty partition streamed %v", rows)
	}
}

func TestVTStreamRequiresPartition(t *testing.T) {
	e := newSeqEnv(t, 0, nil)
	if _, err := e.mt.QueryStream(Query{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("partitionless stream accepted: %v", err)
	}
	if _, err := e.mt.QueryAtomic(Query{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("partitionless query accepted: %v", err)
	}
}

// TestVTStreamSeesOwnPriorWrites: rows written before the stream opened
// must appear, whatever the migration stage.
func TestVTStreamSeesOwnPriorWrites(t *testing.T) {
	for steps := 0; steps <= 20; steps += 4 {
		e := newSeqEnv(t, 0, seedRows())
		e.step(steps)
		e.apply(opSpec{kind: OpInsert, row: "zz", val: 99})
		s, err := e.mt.QueryStream(Query{Partition: "P"})
		if err != nil {
			t.Fatal(err)
		}
		rows := collect(t, s)
		s.Close()
		found := false
		for _, r := range rows {
			if r.Key.Row == "zz" && val(r.Props, "v") == 99 {
				found = true
			}
		}
		if !found {
			t.Fatalf("steps=%d: stream missed a prior write: %v", steps, rows)
		}
	}
}
