package harness

import (
	"reflect"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/mtable"
)

// TestFixedSystemSurvivesExploration is the keystone test: with no bugs
// seeded, no schedule may produce an output divergence. A failure here
// means the migration protocol itself (or the oracle) is wrong.
func TestFixedSystemSurvivesExploration(t *testing.T) {
	res := core.MustExplore(Test(HarnessConfig{}), core.Options{
		Scheduler:  "random",
		Iterations: 400,
		MaxSteps:   30000,
		Seed:       1,
	})
	if res.BugFound {
		t.Fatalf("fixed system diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestFixedSystemSurvivesPCT(t *testing.T) {
	res := core.MustExplore(Test(HarnessConfig{}), core.Options{
		Scheduler:  "pct",
		Iterations: 400,
		MaxSteps:   30000,
		Seed:       2,
	})
	if res.BugFound {
		t.Fatalf("fixed system diverged under pct: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestFixedSystemBiggerWorkload(t *testing.T) {
	res := core.MustExplore(Test(HarnessConfig{Services: 3, OpsPerService: 6, SeedRows: 4}), core.Options{
		Scheduler:  "random",
		Iterations: 120,
		MaxSteps:   60000,
		Seed:       3,
	})
	if res.BugFound {
		t.Fatalf("fixed system diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

// findBug runs the harness with one seeded bug under the given scheduler.
func findBug(t *testing.T, bug mtable.Bugs, scheduler string, iterations int) core.Result {
	t.Helper()
	return core.MustExplore(Test(HarnessConfig{Bugs: bug}), core.Options{
		Scheduler:  scheduler,
		Iterations: iterations,
		MaxSteps:   30000,
		Seed:       1,
	})
}

// The organic bugs that the default workload is expected to catch (the
// paper's random scheduler caught seven of eleven; ours must catch these
// with one scheduler or the other).
func TestSeededBugsFoundByExploration(t *testing.T) {
	cases := []struct {
		bug        mtable.Bugs
		iterations int
	}{
		{mtable.BugQueryAtomicFilterShadowing, 4000},
		{mtable.BugDeletePrimaryKey, 4000},
		{mtable.BugTombstoneOutputETag, 4000},
		{mtable.BugEnsurePartitionSwitchedFromPopulated, 4000},
	}
	for _, c := range cases {
		c := c
		t.Run(c.bug.String(), func(t *testing.T) {
			res := findBug(t, c.bug, "random", c.iterations)
			if !res.BugFound {
				res = findBug(t, c.bug, "pct", c.iterations)
			}
			if !res.BugFound {
				t.Fatalf("bug %s not found by either scheduler", c.bug)
			}
			if res.Report.Kind != core.SafetyBug {
				t.Fatalf("bug %s: kind = %v, want safety", c.bug, res.Report.Kind)
			}
		})
	}
}

// The stream bugs need a stream racing the migrator; give them more budget.
func TestStreamBugsFoundByExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("stream bug search is slow")
	}
	cases := []mtable.Bugs{
		mtable.BugQueryStreamedLock,
		mtable.BugQueryStreamedBackUpNewStream,
		mtable.BugMigrateSkipUseNewWithTombstones,
	}
	for _, bug := range cases {
		bug := bug
		t.Run(bug.String(), func(t *testing.T) {
			res := findBug(t, bug, "pct", 8000)
			if !res.BugFound {
				res = findBug(t, bug, "random", 8000)
			}
			if !res.BugFound {
				t.Fatalf("bug %s not found", bug)
			}
		})
	}
}

// TestCustomCaseBugs pins the paper's ◐ rows: bugs whose triggering inputs
// are too rare for the default distribution need a custom test case that
// fixes the inputs and lets the scheduler search only over interleavings.
func TestCustomCaseBugs(t *testing.T) {
	cases := []mtable.Bugs{
		mtable.BugQueryStreamedFilterShadowing,
		mtable.BugMigrateSkipPreferOld,
		mtable.BugInsertBehindMigrator,
	}
	for _, bug := range cases {
		bug := bug
		t.Run(bug.String(), func(t *testing.T) {
			res := core.MustExplore(mustCustomTest(t, bug, bug), core.Options{
				Scheduler:  "pct",
				Iterations: 6000,
				MaxSteps:   30000,
				Seed:       1,
			})
			if !res.BugFound {
				res = core.MustExplore(mustCustomTest(t, bug, bug), core.Options{
					Scheduler:  "random",
					Iterations: 6000,
					MaxSteps:   30000,
					Seed:       1,
				})
			}
			if !res.BugFound {
				t.Fatalf("custom case for %s found nothing", bug)
			}
		})
	}
}

// mustCustomTest is customTest for a scenario that has a script.
func mustCustomTest(t *testing.T, scenario, bugs mtable.Bugs) core.Test {
	t.Helper()
	test, ok := customTest(scenario, bugs)
	if !ok {
		t.Fatalf("no custom script for %s", scenario)
	}
	return test
}

// TestCustomTestReportsItsScript pins which bugs have a custom script.
// The catalog registers a "-custom" entry only where CustomTest says ok,
// so a bug that loses its script loses its entry; one without a script
// gets no test, not its default workload under a second name.
func TestCustomTestReportsItsScript(t *testing.T) {
	scripted := map[string]bool{
		"QueryStreamedLock":                    true,
		"QueryStreamedBackUpNewStream":         true,
		"EnsurePartitionSwitchedFromPopulated": true,
		"QueryStreamedFilterShadowing":         true,
		"MigrateSkipPreferOld":                 true,
		"MigrateSkipUseNewWithTombstones":      true,
		"InsertBehindMigrator":                 true,
	}
	for _, name := range mtable.AllBugs() {
		t.Run(name, func(t *testing.T) {
			bug, ok := mtable.BugByName(name)
			if !ok {
				t.Fatalf("BugByName(%q) failed", name)
			}
			test, ok := CustomTest(bug)
			if ok != scripted[name] {
				t.Fatalf("CustomTest(%s) ok = %v, want %v", name, ok, scripted[name])
			}
			if !ok {
				if test.Name != "" || test.Entry != nil {
					t.Fatalf("CustomTest(%s) returned a test without a script: %q", name, test.Name)
				}
				return
			}
			if test.Name != "mtable-custom-"+name || test.Entry == nil {
				t.Fatalf("CustomTest(%s) = %q, entry set %v", name, test.Name, test.Entry != nil)
			}
		})
	}
}

// The custom cases must not flag the fixed system.
func TestCustomCasesCleanOnFixedSystem(t *testing.T) {
	for _, bug := range []mtable.Bugs{
		mtable.BugQueryStreamedFilterShadowing,
		mtable.BugMigrateSkipPreferOld,
		mtable.BugInsertBehindMigrator,
	} {
		res := core.MustExplore(mustCustomTest(t, bug, 0), core.Options{
			Scheduler:  "random",
			Iterations: 150,
			MaxSteps:   30000,
			Seed:       5,
		})
		if res.BugFound {
			t.Fatalf("custom case (fixed code) diverged: %v\n%s", res.Report.Error(), res.Report.FormatLog())
		}
	}
}

// TestExecutionsStartFromTheSeededImage holds every execution's tables to
// a freshly seeded image, whatever the executions before it or beside it
// did to theirs: each execution checks the clones its Tables machine
// would own and the etag pairs its services would start from, for every
// seed-row count, and then rewrites every row of its clones. Three pooled
// executions on one worker, then eight on four workers, so that under
// -race a write to the shared image is a reported race.
func TestExecutionsStartFromTheSeededImage(t *testing.T) {
	fresh := make([]seededImage, len(rowPool))
	for n := range fresh {
		fresh[n] = seedImage(n + 1)
	}
	test := core.Test{
		Name: "mtable-seeded-image",
		Entry: func(ctx *core.Context) {
			for n, want := range fresh {
				tables := newTablesMachine(&images[n])
				got := seededImage{old: tables.old, new: tables.new, rt: tables.rt, hist: tables.hist, etags: images[n].etags}
				if !reflect.DeepEqual(got, want) {
					ctx.Assert(false, "execution's tables with %d seed rows differ from a freshly seeded image", n+1)
				}
				for _, tbl := range []*mtable.RefTable{tables.old, tables.new, tables.rt} {
					rows, _ := tbl.QueryAtomic(mtable.Query{Partition: Partition})
					for _, r := range rows {
						if _, err := tbl.ExecuteBatch([]mtable.Operation{{Kind: mtable.OpReplace, Key: r.Key, Props: vProps(99), ETag: mtable.ETagAny}}); err != nil {
							ctx.Assert(false, "rewriting %v: %v", r.Key, err)
						}
						tables.hist.Record(1, r.Key, vProps(99))
					}
				}
			}
		},
	}
	for _, run := range []struct{ workers, iterations int }{{1, 3}, {4, 8}} {
		res := core.MustExplore(test, core.Options{Scheduler: "random", Workers: run.workers, Iterations: run.iterations, Seed: 1})
		if res.BugFound {
			t.Fatalf("%d workers: %v", run.workers, res.Report.Error())
		}
		if res.Executions != run.iterations {
			t.Fatalf("%d workers: %d executions, want %d", run.workers, res.Executions, run.iterations)
		}
	}
}
