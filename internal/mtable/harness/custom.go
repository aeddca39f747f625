package harness

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/mtable"
)

// This file holds the custom test cases of §6.2: four of the Table 2 bugs
// are triggered by inputs too rare for the default random workload, so —
// exactly as the paper's developers did — we pin the triggering inputs in
// a fixed script and let the scheduler search only over interleavings.

// CustomTest builds the custom-input test case for the given bug, with the
// bug seeded.
func CustomTest(bug mtable.Bugs) core.Test {
	return customTest(bug, bug)
}

// customTest wires the scripted services for the scenario keyed by
// `scenario`, seeding `bugs` into the system under test.
func customTest(scenario, bugs mtable.Bugs) core.Test {
	lowFilter := &mtable.Filter{Prop: "v", Min: 0, Max: 2}
	var scripts [][]scriptStep
	switch scenario {
	case mtable.BugQueryStreamedFilterShadowing:
		// One service moves k1 out of the filter's range (the stale
		// old-table version still matches); the other streams with the
		// filter. The violation needs the write to land in the new table
		// before the stream runs — an interleaving for the scheduler.
		scripts = [][]scriptStep{
			{
				{write: &mtable.Operation{Kind: mtable.OpReplace, Key: mtable.Key{Row: "k1"}, Props: vProps(50), ETag: mtable.ETagAny}},
			},
			{
				{stream: true, filter: lowFilter},
				{stream: true, filter: lowFilter},
			},
		}
	case mtable.BugQueryStreamedLock, mtable.BugQueryStreamedBackUpNewStream,
		mtable.BugMigrateSkipUseNewWithTombstones:
		// Stream-vs-migrator races: delete a row, add new-table-only
		// rows to desynchronize the stream's pagers, then stream while
		// the migrator runs.
		scripts = [][]scriptStep{
			{
				{write: &mtable.Operation{Kind: mtable.OpInsert, Key: mtable.Key{Row: "k3"}, Props: vProps(3)}},
				{write: &mtable.Operation{Kind: mtable.OpDelete, Key: mtable.Key{Row: "k2"}, ETag: mtable.ETagAny}},
			},
			{
				{stream: true},
				{stream: true},
			},
		}
	case mtable.BugMigrateSkipPreferOld, mtable.BugEnsurePartitionSwitchedFromPopulated:
		// A client with a warmed PreferOld cache writes while the
		// migrator switches the partition; a final query audits the
		// result.
		scripts = [][]scriptStep{
			{
				{query: true}, // warm the phase cache
				{write: &mtable.Operation{Kind: mtable.OpReplace, Key: mtable.Key{Row: "k1"}, Props: vProps(40), ETag: mtable.ETagAny}},
				{query: true},
			},
			{
				{query: true},
				{query: true},
			},
		}
	case mtable.BugInsertBehindMigrator:
		// Two services insert the same fresh key concurrently: the blind
		// upsert silently overwrites the loser.
		scripts = [][]scriptStep{
			{
				{write: &mtable.Operation{Kind: mtable.OpInsert, Key: mtable.Key{Row: "k4"}, Props: vProps(1)}},
				{query: true},
			},
			{
				{write: &mtable.Operation{Kind: mtable.OpInsert, Key: mtable.Key{Row: "k4"}, Props: vProps(2)}},
				{query: true},
			},
		}
	default:
		// Fall back to the default workload with the bug seeded.
		return Test(HarnessConfig{Bugs: bugs})
	}

	names := serviceNames(len(scripts))
	return core.Test{
		Name: fmt.Sprintf("mtable-custom-%s", scenario),
		Entry: func(ctx *core.Context) {
			tablesID, guard, seeded := startTables(ctx, 3)
			serviceIDs := make([]core.MachineID, len(scripts))
			for i, script := range scripts {
				svc := newServiceMachine(names[i], tablesID, guard, int64(i+1), bugs, 0, seeded)
				svc.script = script
				serviceIDs[i] = ctx.CreateMachine(svc, names[i])
			}
			migID := ctx.CreateMachine(newMigratorMachine(tablesID, guard, bugs, false), "Migrator")
			for _, id := range serviceIDs {
				ctx.Send(id, startEvent{})
			}
			ctx.Send(migID, startEvent{})
		},
	}
}
