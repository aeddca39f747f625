package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// --- inbox: the head-indexed queue replacing slice-shift dequeues ---

func TestInboxFIFOAndRemoval(t *testing.T) {
	var q inbox
	for i := 0; i < 5; i++ {
		q.push(Signal(fmt.Sprintf("e%d", i)))
	}
	if q.size() != 5 {
		t.Fatalf("size = %d, want 5", q.size())
	}
	// Remove a middle element: the events in front of it keep their order.
	if got := q.removeAt(2).Name(); got != "e2" {
		t.Fatalf("removeAt(2) = %s", got)
	}
	for _, want := range []string{"e0", "e1", "e3", "e4"} {
		if got := q.removeAt(0).Name(); got != want {
			t.Fatalf("pop = %s, want %s", got, want)
		}
	}
	if q.size() != 0 {
		t.Fatalf("size = %d after draining", q.size())
	}
	// A drained inbox rewinds to the start of its buffer.
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained inbox not rewound: head=%d len=%d", q.head, len(q.buf))
	}
}

func TestInboxCompactionBoundsBuffer(t *testing.T) {
	var q inbox
	// Steady-state churn: push one, pop one, live window stays at 1. The
	// dead prefix must be compacted away instead of growing without bound.
	for i := 0; i < 10000; i++ {
		q.push(Signal("x"))
		if q.size() > 1 {
			q.removeAt(0)
		}
	}
	if cap(q.buf) > 64 {
		t.Fatalf("buffer grew to cap %d under steady-state churn", cap(q.buf))
	}
	// Cleared slots must not retain events.
	q.clear()
	for i := range q.buf[:cap(q.buf)] {
		if q.buf[:cap(q.buf)][i] != nil {
			t.Fatalf("slot %d retains an event after clear", i)
		}
	}
}

// --- pooling determinism: bit-identical results with reuse on and off ---

// faultHeavyTest exercises every per-execution fault counter the pooled
// runtime must rewind: timers (DecisionTimer), a crash budget consumed
// through CrashPoint with restart (crashes, pendingCrash), and drop and
// duplicate budgets consumed through SendUnreliable (drops, dups). Under
// some schedules the sink misses or double-counts pings, or the crash
// wipes its state — a schedule-dependent safety bug.
func faultHeavyTest() Test {
	return Test{
		Name: "fault-heavy",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&counterSink{want: 3}, "sink")
			tid := ctx.StartTimer("T", sink, Signal("ping"))
			ctx.CrashPoint(sink)
			for i := 0; i < 3; i++ {
				ctx.SendUnreliable(sink, Signal("ping"))
			}
			ctx.StopTimer(tid)
			ctx.Send(sink, Signal("done"))
		},
		Faults: Faults{MaxCrashes: 1, MaxDrops: 2, MaxDuplicates: 2},
	}
}

// assertIdenticalResults compares every canonical field of two Results and
// the byte-encoded traces of their reports.
func assertIdenticalResults(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.BugFound != b.BugFound {
		t.Fatalf("%s: BugFound %v vs %v", label, a.BugFound, b.BugFound)
	}
	if a.Executions != b.Executions || a.TotalSteps != b.TotalSteps || a.Choices != b.Choices {
		t.Fatalf("%s: statistics diverge:\na: %+v\nb: %+v", label, a, b)
	}
	if !a.BugFound {
		return
	}
	if a.Report.Iteration != b.Report.Iteration {
		t.Fatalf("%s: buggy iteration %d vs %d", label, a.Report.Iteration, b.Report.Iteration)
	}
	if a.Report.Message != b.Report.Message {
		t.Fatalf("%s: bug message diverges:\na: %s\nb: %s", label, a.Report.Message, b.Report.Message)
	}
	ea, err := a.Report.Trace.Encode()
	if err != nil {
		t.Fatalf("%s: encode a: %v", label, err)
	}
	eb, err := b.Report.Trace.Encode()
	if err != nil {
		t.Fatalf("%s: encode b: %v", label, err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("%s: encoded traces differ:\na: %s\nb: %s", label, ea, eb)
	}
}

// TestPoolingDeterminism is the pooled engine's core contract: for a fixed
// seed, pooling on and off produce byte-identical encoded traces and
// identical Results, at every tested worker count, for plain and
// fault-heavy workloads alike.
func TestPoolingDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		build func() Test
		opts  Options
	}{
		{"race-random", raceTest, Options{Scheduler: "random", Iterations: 2000, Seed: 7, NoReplayLog: true}},
		{"race-pct", raceTest, Options{Scheduler: "pct", Iterations: 1000, Seed: 42, NoReplayLog: true}},
		{"fault-heavy", faultHeavyTest, Options{Scheduler: "random", Iterations: 500, Seed: 3, NoReplayLog: true}},
		{"persist-torn", func() Test { return tornCrashTest(true) }, Options{Scheduler: "random", Iterations: 500, Seed: 3, NoReplayLog: true}},
		{"fault-heavy-clean", faultHeavyTest, Options{Scheduler: "rr", Iterations: 50, Seed: 1, NoReplayLog: true, Faults: &Faults{}}},
		{"clean-choices", cleanChoiceTest, Options{Scheduler: "random", Iterations: 300, Seed: 9, NoReplayLog: true}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				pooled := c.opts
				pooled.Workers = workers
				fresh := pooled
				fresh.NoReuse = true
				a := MustExplore(c.build(), pooled)
				b := MustExplore(c.build(), fresh)
				assertIdenticalResults(t, "pooled vs NoReuse", a, b)
			})
		}
	}
}

// TestPoolingDeterminismPortfolio extends the contract to portfolio
// runs: winner attribution, per-member statistics and the winning trace
// are bit-identical with pooling on and off.
func TestPoolingDeterminismPortfolio(t *testing.T) {
	base := withMembers(Options{Iterations: 500, Seed: 11, Workers: 4, NoReplayLog: true},
		"random", "pct", "delay")
	fresh := base
	fresh.NoReuse = true
	a := MustExplore(faultHeavyTest(), base)
	b := MustExplore(faultHeavyTest(), fresh)
	assertIdenticalResults(t, "portfolio pooled vs NoReuse", a, b)
	if a.Winner != b.Winner {
		t.Fatalf("winner diverges: %d vs %d", a.Winner, b.Winner)
	}
	for m := range a.Portfolio {
		pa, pb := a.Portfolio[m], b.Portfolio[m]
		if pa.Executions != pb.Executions || pa.TotalSteps != pb.TotalSteps ||
			pa.Winner != pb.Winner {
			t.Fatalf("member %d stats diverge:\npooled: %+v\nfresh: %+v", m, pa, pb)
		}
	}
}

// TestPooledTraceReplays: a trace found by the pooled engine replays
// single-threaded to the identical violation — the copy newTrace takes
// must be immune to the runtime's next reset.
func TestPooledTraceReplays(t *testing.T) {
	opts := Options{Scheduler: "random", Iterations: 500, Seed: 3, Workers: 4, NoReplayLog: true}
	res := MustExplore(faultHeavyTest(), opts)
	if !res.BugFound {
		t.Fatal("fault-heavy bug not found")
	}
	rep, err := Replay(faultHeavyTest(), res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if rep == nil || rep.Message != res.Report.Message {
		t.Fatalf("replay mismatch: %+v vs %+v", rep, res.Report)
	}
}

// TestPoolReusesRuntimeAndWorkers drives an execPool directly and asserts
// the mechanics the benchmarks measure: one Runtime per pool, recycled
// machine structs, and idle coroutines re-armed instead of respawned — as
// many as handlers were ever suspended at once on this runtime (seed 2 of
// the three-machine ping-pong suspends two, seed 1 all three).
func TestPoolReusesRuntimeAndWorkers(t *testing.T) {
	o := resolved(Options{Iterations: 1, MaxSteps: 1000})
	pool := newExecPool(o)
	defer pool.release()
	sched := NewRandomScheduler()
	test := pingPongTest(5, false)

	var r1 *Runtime
	machines := 0
	for i, leg := range []struct {
		seed    int64
		workers int
	}{{2, 2}, {2, 2}, {1, 3}, {2, 3}} {
		sched.Prepare(leg.seed, o.MaxSteps)
		r := pool.runtime(sched, o.runtimeConfig(test, false))
		if i == 0 {
			r1 = r
		} else if r != r1 {
			t.Fatal("pool handed out a different Runtime on reuse")
		}
		if rep := r.execute(test); rep != nil {
			t.Fatalf("unexpected bug: %v", rep.Error())
		}
		if got := len(r.machineCache) + len(r.machines); i == 0 {
			machines = got
		} else if got != machines {
			t.Fatalf("machine structs not recycled: %d after the first execution, %d after execution %d", machines, got, i)
		}
		if got := len(r.freeWorkers); got != leg.workers {
			t.Fatalf("execution %d (seed %d): %d idle workers, want %d", i, leg.seed, got, leg.workers)
		}
	}
}

// TestPoolReleaseStopsWorkers: after Explore returns, the pooled coroutines
// must be gone — pooling trades spawns for idling, not leaks. Coroutine exit
// is synchronous; the grace period is for the exploration workers' own
// goroutines, which may still be on their way out.
func TestPoolReleaseStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		res := MustExplore(faultHeavyTest(), Options{Scheduler: "random", Iterations: 20, Seed: int64(i), Workers: 4, NoReplayLog: true})
		_ = res
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutine leak with pooling: before=%d after=%d", before, after)
	}
}

// TestTraceOwnsItsDecisions pins the decode-out-of-the-arena contract:
// resetting the runtime that recorded a trace must not clobber the
// trace's decision sequence.
func TestTraceOwnsItsDecisions(t *testing.T) {
	o := resolved(Options{Iterations: 1, MaxSteps: 1000})
	pool := newExecPool(o)
	defer pool.release()
	sched := NewRandomScheduler()
	test := pingPongTest(5, false)

	sched.Prepare(1, o.MaxSteps)
	r := pool.runtime(sched, o.runtimeConfig(test, false))
	r.execute(test)
	tr := newTrace(test.Name, sched.Name(), 1, Faults{}, r.dec.decode())
	recorded := append([]Decision(nil), tr.Decisions...)

	sched.Prepare(99, o.MaxSteps)
	r2 := pool.runtime(sched, o.runtimeConfig(test, false))
	r2.execute(test)

	if len(tr.Decisions) != len(recorded) {
		t.Fatalf("trace length changed after reset: %d vs %d", len(tr.Decisions), len(recorded))
	}
	for i := range recorded {
		if tr.Decisions[i] != recorded[i] {
			t.Fatalf("decision %d clobbered by reset: %s vs %s", i, tr.Decisions[i], recorded[i])
		}
	}
}

// --- runtimeConfig.logCap: the replay-log bound ---

// TestLogCapBoundsReplayLog: a small cap truncates a replay's log, and the
// cap is re-applied (not accumulated) when the pooled runtime is reused: the
// confirmation replay under the default cap brings the full log back.
func TestLogCapBoundsReplayLog(t *testing.T) {
	o := Options{Scheduler: "random", Iterations: 1000, Seed: 42}
	res := MustExplore(raceTest(), o)
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	full := len(res.Report.Log)
	if full <= 5 {
		t.Fatalf("default-cap replay log has only %d lines", full)
	}
	pool := newExecPool(o)
	defer pool.release()
	o = resolved(o)
	if n := len(replayLog(pool, raceTest(), res.Report.Trace, o, 5)); n == 0 || n > 5 {
		t.Fatalf("replay log has %d lines, want 1..5", n)
	}
	if n := len(replayLog(pool, raceTest(), res.Report.Trace, o, defaultLogCap)); n != full {
		t.Fatalf("replay on the reused runtime logged %d lines, the confirmation replay %d", n, full)
	}
}
