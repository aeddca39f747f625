package harness

import (
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
			res := core.MustExplore(CustomTest(bug), core.Options{
				Scheduler:  "pct",
				Iterations: 6000,
				MaxSteps:   30000,
				Seed:       1,
			})
			if !res.BugFound {
				res = core.MustExplore(CustomTest(bug), core.Options{
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

// The custom cases must not flag the fixed system.
func TestCustomCasesCleanOnFixedSystem(t *testing.T) {
	for _, bug := range []mtable.Bugs{
		mtable.BugQueryStreamedFilterShadowing,
		mtable.BugMigrateSkipPreferOld,
		mtable.BugInsertBehindMigrator,
	} {
		res := core.MustExplore(CustomTestFixed(bug), core.Options{
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

func TestMetadataShape(t *testing.T) {
	meta := Metadata()
	if len(meta) != 3 {
		t.Fatalf("machine types = %d, want 3 (Tables, Service, Migrator)", len(meta))
	}
}
