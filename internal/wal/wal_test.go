package wal

import (
	"runtime"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

// --- recovery logic, unit level ---

func durableLog(records ...[2]bool) map[string][]byte {
	m := make(map[string][]byte)
	for i, r := range records {
		if r[0] {
			m[hdrKey(i)] = []byte{1}
		}
		if r[1] {
			m[valKey(i)] = []byte{byte(i + 1)}
		}
	}
	return m
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	// Record 0 complete, record 1 torn (header only), record 2 complete
	// but unreachable past the tear.
	log := durableLog([2]bool{true, true}, [2]bool{true, false}, [2]bool{true, true})
	got := Recover(log, true)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("fixed recovery = %v, want [1]", got)
	}
	// The seeded bug trusts every header: the torn record surfaces as a
	// zero value and the stale record behind it comes back too.
	got = Recover(log, false)
	if len(got) != 3 || got[1] != 0 {
		t.Fatalf("buggy recovery = %v, want [1 0 3]", got)
	}
}

func TestRecoverEmptyAndComplete(t *testing.T) {
	if got := Recover(nil, true); len(got) != 0 {
		t.Fatalf("recovery of empty log = %v", got)
	}
	log := durableLog([2]bool{true, true}, [2]bool{true, true})
	for _, fix := range []bool{false, true} {
		got := Recover(log, fix)
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("fix=%v: recovery of complete log = %v, want [1 2]", fix, got)
		}
	}
}

// --- the systematic scenario ---

// walOptions is the pinned CI configuration: the seeded bug must fall
// within this budget for every scheduler below.
func walOptions(sched string, seed int64) core.Options {
	return core.Options{
		Scheduler: sched, Iterations: 400, Seed: seed,
		MaxSteps: 2000, NoReplayLog: true,
	}
}

// TestTornTailBugFound: the seeded recovery bug — trusting an un-synced
// tail — is found deterministically at a pinned seed by the pct,
// mutational and random schedulers; the buggy trace carries a torn
// DecisionPersist and replays to the identical violation. With
// TestFixedSurvivesSeedSweep and the harness-level oracles (replsys durable
// nodes, mtable completion checkpoint) it is the crash-consistency gate,
// and it matters most under the race detector: crash settlement and restart
// recovery run on the engine's reaping path.
func TestTornTailBugFound(t *testing.T) {
	for _, sched := range []string{"pct", "mutational", "random"} {
		t.Run(sched, func(t *testing.T) {
			opts := walOptions(sched, 1)
			res := core.MustExplore(Scenario(Config{}), opts)
			if !res.BugFound {
				t.Fatalf("torn-tail bug not found in %d iterations", opts.Iterations)
			}
			torn := false
			for _, d := range res.Report.Trace.Decisions {
				if d.Kind == core.DecisionPersist && d.Int > 0 {
					torn = true
				}
			}
			if !torn {
				t.Fatal("buggy trace records no torn persist decision")
			}
			rep, err := core.Replay(Scenario(Config{}), res.Report.Trace, opts)
			if err != nil {
				t.Fatalf("trace did not replay: %v", err)
			}
			if rep == nil || rep.Message != res.Report.Message {
				t.Fatalf("replay mismatch: %+v vs %+v", rep, res.Report)
			}
		})
	}
}

// TestFixedSurvivesSeedSweep: with the torn tail truncated at recovery,
// a 400-iteration exploration stays clean across a seed sweep for every
// scheduler that finds the seeded bug.
func TestFixedSurvivesSeedSweep(t *testing.T) {
	for _, sched := range []string{"pct", "mutational", "random"} {
		for seed := int64(1); seed <= 5; seed++ {
			res := core.MustExplore(Scenario(Config{FixTornTail: true}), walOptions(sched, seed))
			if res.BugFound {
				t.Fatalf("%s seed %d: fixed recovery still fails: %v", sched, seed, res.Report.Error())
			}
		}
	}
}

// TestZeroTornBudgetHidesTheBug: the bug needs a torn crash state; with
// the torn budget removed every crash is clean and even the buggy
// recovery only ever sees complete records.
func TestZeroTornBudgetHidesTheBug(t *testing.T) {
	test := Scenario(Config{})
	test.Faults.MaxTornCrashes = 0
	res := core.MustExplore(test, walOptions("random", 1))
	if res.BugFound {
		t.Fatalf("bug found without a torn budget: %v", res.Report.Error())
	}
}

// maxMallocsPerExecution is the allocation budget of one clean wal-fixed
// execution (pooled, one worker, random scheduler, the scenario's own fault
// budget): the injector with its candidate slot and the candidates method
// value, the monitor and the restarted incarnation with its recovered log.
// Signals, staged writes, fault choices and recovery snapshots all reuse
// runtime storage, and the oracle formats nothing unless a check fails.
// 8.7 mallocs and 541 B are measured today.
const maxMallocsPerExecution = 9

// cleanExecutions is one Explore of n clean wal-fixed executions on one
// worker, so the pool and the coroutine spawn are paid once, as in a real
// run, and every per-n figure is per execution.
func cleanExecutions(tb testing.TB, n int) core.Result {
	tb.Helper()
	res := core.MustExplore(Scenario(Config{FixTornTail: true}), core.Options{
		Scheduler: "random", Workers: 1, Seed: 1, Iterations: n, MaxSteps: 2000, NoReplayLog: true,
	})
	if res.BugFound || res.Executions != n {
		tb.Fatalf("expected %d clean executions, got %v", n, res)
	}
	return res
}

// TestWalCleanExecutionAllocBudget is the regression gate on the crash
// plane's garbage: short-wal, the benchmark's per-execution workload, is
// this execution, so a choice point or snapshot that allocates again shows
// up here first. It skips under -race, so of CI's whole-tree runs the plain
// `go test ./...` is the one that holds it.
func TestWalCleanExecutionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the test's behalf")
	}
	const iterations = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := cleanExecutions(t, iterations)
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / iterations
	allocBytes := float64(after.TotalAlloc-before.TotalAlloc) / iterations
	t.Logf("%.1f mallocs, %.0f B per clean execution (%.1f steps)", mallocs, allocBytes, float64(res.TotalSteps)/iterations)
	if mallocs > maxMallocsPerExecution {
		t.Errorf("%.1f mallocs per execution, budget %d", mallocs, maxMallocsPerExecution)
	}
}

// BenchmarkWalCleanExecution prints what the budget gates — allocs/op is
// per execution — next to the time and steps of one pooled clean wal-fixed
// execution, the unit of the short-wal workload. Invariant: at -benchtime
// 2000x allocs/op stays within maxMallocsPerExecution.
func BenchmarkWalCleanExecution(b *testing.B) {
	b.ReportAllocs()
	res := cleanExecutions(b, b.N)
	b.ReportMetric(float64(res.TotalSteps)/float64(b.N), "steps/op")
}
