package harness_test

import (
	"runtime"
	"testing"

	"github.com/gostorm/gostorm"
)

// Allocation budget of one clean MigratingTable execution, pooled, one
// worker, random scheduler: ~110 % of what the model achieves (170 mallocs,
// 17.8 KB; the engine's own share is a few of each). The tree before rows
// became immutable values and the stub protocol recycled its records read
// 1 052 mallocs and 84.7 KB here; before every execution cloned one seeded
// image instead of seeding its tables afresh, 184 mallocs and 18.5 KB.
const (
	maxMallocsPerExecution = 187
	maxBytesPerExecution   = 19600
)

// cleanExecutions is one Explore of n clean executions on one worker, so
// the pool and the coroutine spawn are paid once, as in a real run, and
// every per-n figure is per execution.
func cleanExecutions(tb testing.TB, n int) gostorm.Result {
	tb.Helper()
	res := exploreScenario(tb, "mtable",
		gostorm.WithScheduler("random"), gostorm.WithWorkers(1),
		gostorm.WithSeed(scheduleSeed), gostorm.WithIterations(n), gostorm.WithNoReplayLog())
	if res.BugFound || res.Executions != n {
		tb.Fatalf("expected %d clean executions, got %v", n, res)
	}
	return res
}

// TestCleanExecutionAllocBudget is the regression gate on the model's
// garbage: the MigratingTable harness is two of the benchmark's four
// workloads, and what it allocates per execution — not the exploration
// loop — decides their executions per second. It skips under -race, so of
// CI's whole-tree runs the plain `go test ./...` is the one that holds it.
func TestCleanExecutionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the test's behalf")
	}
	const iterations = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := cleanExecutions(t, iterations)
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / iterations
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / iterations
	t.Logf("%.0f mallocs and %.0f B per clean execution (%.0f steps)", mallocs, bytes, float64(res.TotalSteps)/iterations)
	if mallocs > maxMallocsPerExecution {
		t.Errorf("%.0f mallocs per execution, budget %d", mallocs, maxMallocsPerExecution)
	}
	if bytes > maxBytesPerExecution {
		t.Errorf("%.0f bytes per execution, budget %d", bytes, maxBytesPerExecution)
	}
}

// BenchmarkMTableCleanExecution prints what the budget gates — allocs/op
// and B/op are per execution — next to the time and steps of one clean
// execution, the unit the paper's 100,000-execution budgets are made of.
// Invariant: at -benchtime 2000x allocs/op and B/op stay within
// maxMallocsPerExecution and maxBytesPerExecution.
func BenchmarkMTableCleanExecution(b *testing.B) {
	b.ReportAllocs()
	res := cleanExecutions(b, b.N)
	b.ReportMetric(float64(res.TotalSteps)/float64(b.N), "steps/op")
}
