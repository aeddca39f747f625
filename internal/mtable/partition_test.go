package mtable

import (
	"errors"
	"testing"
)

// Partition isolation: migrating one partition must not disturb another.

func newTwoPartitionEnv(t *testing.T) (*MigratingTable, *Migrator, *RefTable, *RefTable) {
	t.Helper()
	old, new := NewRefTable(), NewRefTable()
	for _, part := range []string{"P", "Q"} {
		if err := InitializeMigration(old, new, part); err != nil {
			t.Fatal(err)
		}
	}
	for i, part := range []string{"P", "Q"} {
		props := SeedBackendRow(Props(Prop{"v", int64(i + 1)}), int64(100+i))
		if _, err := old.ExecuteBatch(nil, []Operation{{Kind: OpInsert, Key: Key{part, "r1"}, Props: props}}); err != nil {
			t.Fatal(err)
		}
	}
	guard := NewStreamGuard()
	mt := NewMigratingTable(old, new, guard, 1, 0, NopReporter)
	mig := NewMigrator(old, new, guard, "P", 0) // migrates only P
	return mt, mig, old, new
}

func TestMigrationIsPerPartition(t *testing.T) {
	mt, mig, _, _ := newTwoPartitionEnv(t)
	for !mig.Done() {
		if _, err := mig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	phaseP, err := mt.Phase("P")
	if err != nil {
		t.Fatal(err)
	}
	if phaseP != PhaseUseNew {
		t.Fatalf("P phase = %v, want UseNew", phaseP)
	}
	phaseQ, err := mt.Phase("Q")
	if err != nil {
		t.Fatal(err)
	}
	if phaseQ != PhasePreferOld {
		t.Fatalf("Q phase = %v, want PreferOld (untouched)", phaseQ)
	}
	// Q's data remains readable and writable on the old path.
	rows, err := mt.QueryAtomic(Query{Partition: "Q"})
	if err != nil || len(rows) != 1 || val(rows[0].Props, "v") != 2 {
		t.Fatalf("Q query: %v %v", rows, err)
	}
	if _, err := mt.ExecuteBatch([]Operation{{Kind: OpReplace, Key: Key{"Q", "r1"}, Props: Props(Prop{"v", 9}), ETag: ETagAny}}); err != nil {
		t.Fatalf("Q write: %v", err)
	}
	// P's data is in the new table.
	rows, err = mt.QueryAtomic(Query{Partition: "P"})
	if err != nil || len(rows) != 1 || val(rows[0].Props, "v") != 1 {
		t.Fatalf("P query: %v %v", rows, err)
	}
}

func TestCrossPartitionBatchRejected(t *testing.T) {
	mt, _, _, _ := newTwoPartitionEnv(t)
	_, err := mt.ExecuteBatch([]Operation{
		{Kind: OpInsert, Key: Key{"P", "x"}, Props: Props(Prop{"v", 1})},
		{Kind: OpInsert, Key: Key{"Q", "x"}, Props: Props(Prop{"v", 1})},
	})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("cross-partition batch accepted: %v", err)
	}
}

func TestStreamsArePerPartition(t *testing.T) {
	mt, mig, _, _ := newTwoPartitionEnv(t)
	// Migrate P halfway, then stream Q: only Q's rows may appear.
	for i := 0; i < 5; i++ {
		if _, err := mig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := mt.QueryStream(Query{Partition: "Q"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := 0
	for {
		row, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row.Key.Partition != "Q" {
			t.Fatalf("stream leaked row from partition %q", row.Key.Partition)
		}
		count++
	}
	if count != 1 {
		t.Fatalf("Q stream returned %d rows, want 1", count)
	}
}
