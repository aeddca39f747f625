package harness_test

import (
	"runtime"
	"testing"

	"github.com/gostorm/gostorm"
)

// Allocation budget of one clean MigratingTable execution, pooled, one
// worker, random scheduler: ~110 % of what the model achieves (184 mallocs,
// 18.5 KB; the engine's own share is a few of each). The tree before rows
// became immutable values and the stub protocol recycled its records read
// 1 052 mallocs and 84.7 KB here.
const (
	maxMallocsPerExecution = 200
	maxBytesPerExecution   = 20 << 10
)

// TestCleanExecutionAllocBudget is the regression gate on the model's
// garbage: the MigratingTable harness is two of the benchmark's four
// workloads, and what it allocates per execution — not the exploration
// loop — decides their executions per second.
func TestCleanExecutionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the test's behalf")
	}
	const iterations = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := exploreScenario(t, "mtable",
		gostorm.WithScheduler("random"), gostorm.WithWorkers(1),
		gostorm.WithSeed(scheduleSeed), gostorm.WithIterations(iterations), gostorm.WithNoReplayLog())
	runtime.ReadMemStats(&after)
	if res.BugFound || res.Executions != iterations {
		t.Fatalf("expected %d clean executions, got %v", iterations, res)
	}
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
