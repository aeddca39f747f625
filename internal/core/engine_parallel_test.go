package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// cleanChoiceTest makes a few choices and always passes — a minimal
// workload for counting executions.
func cleanChoiceTest() Test {
	return Test{
		Name: "clean-choices",
		Entry: func(ctx *Context) {
			ctx.RandomBool()
			ctx.RandomInt(4)
		},
	}
}

// TestParallelMatchesSequential is the determinism contract of the worker
// pool: for a per-iteration-deterministic scheduler, a fixed seed must
// yield the identical Result — same bug, same trace, same statistics —
// regardless of worker count.
func TestParallelMatchesSequential(t *testing.T) {
	base := Options{Scheduler: "random", Iterations: 2000, Seed: 7, NoReplayLog: true}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8

	a := MustExplore(raceTest(), seq)
	b := MustExplore(raceTest(), par)
	if !a.BugFound || !b.BugFound {
		t.Fatalf("bug not found: seq=%v par=%v", a.BugFound, b.BugFound)
	}
	if a.Executions != b.Executions || a.TotalSteps != b.TotalSteps || a.Choices != b.Choices {
		t.Fatalf("statistics diverge:\nseq: %+v\npar: %+v", a, b)
	}
	if a.Report.Iteration != b.Report.Iteration {
		t.Fatalf("buggy iteration diverges: %d vs %d", a.Report.Iteration, b.Report.Iteration)
	}
	if a.Report.Trace.Seed != b.Report.Trace.Seed {
		t.Fatalf("trace seeds diverge: %d vs %d", a.Report.Trace.Seed, b.Report.Trace.Seed)
	}
	if len(a.Report.Trace.Decisions) != len(b.Report.Trace.Decisions) {
		t.Fatalf("decision counts diverge: %d vs %d",
			len(a.Report.Trace.Decisions), len(b.Report.Trace.Decisions))
	}
	for i := range a.Report.Trace.Decisions {
		if a.Report.Trace.Decisions[i] != b.Report.Trace.Decisions[i] {
			t.Fatalf("decision %d diverges: %s vs %s",
				i, a.Report.Trace.Decisions[i], b.Report.Trace.Decisions[i])
		}
	}
}

// TestParallelTraceReplays: a trace found by the worker pool must replay,
// single-threaded, to the identical violation.
func TestParallelTraceReplays(t *testing.T) {
	opts := Options{Scheduler: "random", Iterations: 2000, Seed: 11, Workers: 8, NoReplayLog: true}
	res := MustExplore(raceTest(), opts)
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	rep, err := Replay(raceTest(), res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if rep == nil || rep.Message != res.Report.Message {
		t.Fatalf("replay mismatch: %+v vs %+v", rep, res.Report)
	}
}

// TestParallelCleanRunCoversAllIterations: without a bug, every iteration
// of the budget runs exactly once no matter how many workers share it.
func TestParallelCleanRunCoversAllIterations(t *testing.T) {
	res := MustExplore(cleanChoiceTest(), Options{
		Scheduler: "random", Iterations: 500, Seed: 3, Workers: 4, NoReplayLog: true,
	})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if res.Executions != 500 {
		t.Fatalf("executions = %d, want 500", res.Executions)
	}
}

// TestRandomIntBoundIsASafetyBug: a non-positive RandomInt range is the
// harness's mistake, reported as a safety bug naming RandomInt before any
// scheduler is asked, whichever scheduler runs — not an opaque rand.Intn
// panic. The oracle's dfs is held to it too.
func TestRandomIntBoundIsASafetyBug(t *testing.T) {
	for _, name := range append(SchedulerNames(), "dfs") {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, -3} {
				test := Test{Name: "bad-bound", Entry: func(ctx *Context) { ctx.RandomInt(n) }}
				res := exploreWith(test, Options{Scheduler: name, Iterations: 1, Workers: 1, NoReplayLog: true})
				if !res.BugFound || res.Report.Kind != SafetyBug || !strings.Contains(res.Report.Message, "RandomInt") {
					t.Fatalf("RandomInt(%d) = %+v, want a safety bug naming RandomInt", n, res.Report)
				}
			}
		})
	}
}

// TestSchedulerInstancesAreIndependent: two instances of one scheduler,
// prepared with the same seed, make identical choices without sharing
// state — the property the worker pool rests on.
func TestSchedulerInstancesAreIndependent(t *testing.T) {
	a, b := newScheduler(t, "pct", 0), newScheduler(t, "pct", 0)
	a.Prepare(42, 1000)
	b.Prepare(42, 1000)
	enabled := []MachineID{0, 1, 2}
	for i := 0; i < 50; i++ {
		if am, bm := a.NextMachine(enabled), b.NextMachine(enabled); am != bm {
			t.Fatalf("step %d: instances diverged: %d vs %d", i, am, bm)
		}
		if ai, bi := a.NextInt(10), b.NextInt(10); ai != bi {
			t.Fatalf("step %d: NextInt diverged: %d vs %d", i, ai, bi)
		}
	}
}

// TestHugeBudgetMemoryIsProportionalToWork: "run until I say stop" written
// as an enormous iteration count cut short by the shard's Stop bound —
// dropped to 0 once stopAfter executions have started, the way an agent
// aborts a lease — must stop within the executions in flight and cost
// memory in proportion to the executions actually done, for every shape of
// the loop: a single scheduler, feedback windows, and portfolios with an
// adaptive and with a feedback member. The loops used to allocate
// bookkeeping per *requested* iteration — 8 GiB a member here — which ran
// out the time before the first execution and OOM-killed -race runs.
func TestHugeBudgetMemoryIsProportionalToWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const stopAfter = 1000
	huge := Options{Iterations: 1 << 30, Seed: 1, Workers: 2}
	random, mutational := huge, huge
	random.Scheduler, mutational.Scheduler = "random", "mutational"
	for _, o := range []Options{random, mutational, withMembers(huge, "random", "pct"), withMembers(huge, "random", "mutational")} {
		name := strings.Join(o.Members(), ",")
		var started atomic.Int64
		test := pingPongTest(50, false)
		entry := test.Entry
		test.Entry = func(ctx *Context) {
			started.Add(1)
			entry(ctx)
		}
		stop := func() int64 {
			if started.Load() >= stopAfter {
				return 0
			}
			return PlanSize(o)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ExploreShard(test, o, Shard{From: 0, To: PlanSize(o), Stop: stop})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Executions in flight at the stop are aborted, so the run
		// resolves at most what it started.
		ran := started.Load()
		if execs := int64(res.Executions); execs < 1 || execs > ran || ran > stopAfter+int64(o.Workers) {
			t.Fatalf("%s: %d executions of %d started, want at least one and at most the %d started before the stop and the %d in flight",
				name, execs, ran, stopAfter, o.Workers)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d executions of %d started, %d KiB allocated", name, res.Executions, ran, alloc>>10)
		if alloc > 64<<20 {
			t.Errorf("%s: allocated %d MiB for %d executions", name, alloc>>20, ran)
		}
	}
}

// TestExplorationBookkeepingIsConstant: the loop folds its statistics as
// positions resolve, so what a run keeps does not grow with the executions
// it has done. A pooled execution of a few choices allocates nothing, so
// between execution 1 000 and the last one the live heap stays flat and the
// whole run allocates next to nothing per execution.
func TestExplorationBookkeepingIsConstant(t *testing.T) {
	bools := func(n int) Test {
		return Test{Name: "bools", Entry: func(ctx *Context) {
			for range n {
				ctx.RandomBool()
			}
		}}
	}
	for _, c := range []struct {
		name string
		test Test
		o    Options
	}{
		{"random", bools(1), Options{Iterations: 200000, Workers: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			total := len(c.o.Members()) * c.o.Iterations
			var early, late, before, after runtime.MemStats
			live := func(ms *runtime.MemStats) {
				runtime.GC()
				runtime.ReadMemStats(ms)
			}
			o := c.o
			o.Seed, o.NoReplayLog = 1, true
			// The plan runs on one worker, so the executions start in turn.
			test, started := c.test, 0
			test.Entry = func(ctx *Context) {
				switch started++; started {
				case 1000:
					live(&early)
				case total:
					live(&late)
				}
				c.test.Entry(ctx)
			}
			runtime.ReadMemStats(&before)
			res := MustExplore(test, o)
			runtime.ReadMemStats(&after)
			if res.BugFound || res.Executions != total {
				t.Fatalf("got %d executions (bug %v), want a clean run of %d", res.Executions, res.BugFound, total)
			}
			if growth := int64(late.HeapAlloc) - int64(early.HeapAlloc); growth >= 64<<10 {
				t.Errorf("live heap grew by %d B between execution 1000 and execution %d", growth, total)
			}
			if raceEnabled {
				return // the race runtime allocates on the test's behalf
			}
			if perExec := float64(after.TotalAlloc-before.TotalAlloc) / float64(total); perExec >= 8 {
				t.Errorf("allocated %.1f B per execution, want < 8", perExec)
			}
		})
	}
}
