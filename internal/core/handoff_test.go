package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"iter"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// parkStressTest is a workload built to exercise every control-transfer
// path of the coroutine hub in one execution: ordinary scheduling
// handoffs, timer machines, CrashPoint reaping (a machine unwinding a
// peer's stack mid-step through a nested next()), Restart re-arming a
// recycled machine slot, and — because the timer keeps the system busy
// until the step bound — shutdown reaping of suspended machines at the end.
func parkStressTest() Test {
	return Test{
		Name:   "park-stress",
		Faults: Faults{MaxCrashes: 2},
		Entry: func(ctx *Context) {
			nodes := make([]MachineID, 3)
			for i := range nodes {
				nodes[i] = ctx.CreateMachine(&echoMachine{}, fmt.Sprintf("n%d", i))
			}
			ctx.StartTimer("tick", nodes[0], Signal("tick"))
			for round := 0; round < 8; round++ {
				for _, n := range nodes {
					ctx.Send(n, pingEvent{From: ctx.ID()})
				}
				if v := ctx.CrashPoint(nodes...); v != NoMachine {
					ctx.Restart(v, &echoMachine{})
				}
			}
		},
	}
}

// TestParkingStressCrashRestartRelease makes pool.go's claim that the
// free list needs no synchronization an executable one: NumCPU concurrent
// workers, each with its own pool, hammer crash/restart-heavy executions
// while periodically releasing and rebuilding their pools (the path that
// stops idle worker coroutines). The race detector is the primary
// assertion — any switch missing a happens-before edge shows up here —
// and on top of it every worker must produce bit-identical decision
// sequences for identical seeds, pinning that the handoff never leaks
// schedule state across goroutines, executions, or pools.
func TestParkingStressCrashRestartRelease(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	iters := 200
	if testing.Short() {
		iters = 40
	}
	o := resolved(Options{Iterations: 1, MaxSteps: 500})
	digests := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			test := parkStressTest()
			cfg := o.runtimeConfig(test, false)
			sched := NewRandomScheduler()
			pool := newExecPool(o)
			for i := 0; i < iters; i++ {
				if i%16 == 15 {
					// Hammer the release path: all idle worker
					// coroutines exit, the next execution rebuilds from
					// scratch.
					pool.release()
					pool = newExecPool(o)
				}
				sched.Prepare(int64(i+1), o.MaxSteps)
				r := pool.runtime(sched, cfg)
				if rep := r.execute(test); rep != nil {
					t.Errorf("worker %d: unexpected bug at seed %d: %v", w, i+1, rep.Error())
					return
				}
				h := fnv.New64a()
				var buf [8]byte
				for _, word := range r.dec.words {
					binary.LittleEndian.PutUint64(buf[:], word)
					h.Write(buf[:])
				}
				digests[w] = append(digests[w], h.Sum64())
			}
			pool.release()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if len(digests[w]) != len(digests[0]) {
			t.Fatalf("worker %d ran %d executions, worker 0 ran %d", w, len(digests[w]), len(digests[0]))
		}
		for i := range digests[w] {
			if digests[w][i] != digests[0][i] {
				t.Fatalf("worker %d diverged from worker 0 at seed %d: decision digest %x vs %x",
					w, i+1, digests[w][i], digests[0][i])
			}
		}
	}
}

// reapedPeersTest ends by quiescence after the entry machine reaped two
// peers whose coroutines were already live: a crashed node (it answered a
// ping first) and a stopped timer (it ticked first).
func reapedPeersTest() Test {
	return Test{
		Name: "reaped-peers",
		Entry: func(ctx *Context) {
			n := ctx.CreateMachine(&echoMachine{}, "n")
			ctx.Send(n, pingEvent{From: ctx.ID()})
			ctx.Receive("echo")
			tm := ctx.StartTimer("tick", ctx.ID(), Signal("tick"))
			ctx.Receive("tick")
			ctx.Crash(n)
			ctx.StopTimer(tm)
		},
	}
}

// TestNoCoroutineLeaks: a pulled sequence that is never run to completion
// is a leaked goroutine, so every way an execution can leave a machine
// suspended — the step bound hit with machines still live, a crash- and a
// StopTimer-reaped peer — must end with the goroutine count back at the
// baseline: right after execute on an unpooled runtime, after release on a
// pooled one. Coroutine exit is synchronous, so the count is exact. A
// pooled runtime keeps no more coroutines than handlers were ever live at
// once (workers) — a trampoline is a stack whose handler returned, never
// one more — and an unpooled one none.
func TestNoCoroutineLeaks(t *testing.T) {
	for _, c := range []struct {
		name     string
		test     Test
		maxSteps int
		atBound  bool
		workers  int
	}{
		{"step bound with live machines", parkStressTest(), 60, true, 4},
		{"crash- and StopTimer-reaped peers", reapedPeersTest(), 1000, false, 2},
	} {
		for _, noReuse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/NoReuse=%v", c.name, noReuse), func(t *testing.T) {
				base := runtime.NumGoroutine()
				o := resolved(Options{Iterations: 1, MaxSteps: c.maxSteps, NoReuse: noReuse})
				cfg := o.runtimeConfig(c.test, false)
				sched := NewRandomScheduler()
				pool := newExecPool(o)
				for seed := int64(1); seed <= 20; seed++ {
					sched.Prepare(seed, o.MaxSteps)
					r := pool.runtime(sched, cfg)
					if rep := r.execute(c.test); rep != nil {
						t.Fatalf("seed %d: unexpected bug: %v", seed, rep.Error())
					}
					if (r.steps == c.maxSteps) != c.atBound {
						t.Fatalf("seed %d: execution ended after %d steps (bound %d)", seed, r.steps, c.maxSteps)
					}
					if n := runtime.NumGoroutine(); noReuse && n > base {
						t.Fatalf("seed %d: %d goroutines after an unpooled execution, %d before", seed, n, base)
					}
					if n := len(r.freeWorkers); n > c.workers || noReuse && n > 0 {
						t.Fatalf("seed %d: %d idle workers after the execution, want at most %d (none unpooled)", seed, n, c.workers)
					}
				}
				pool.release()
				if n := runtime.NumGoroutine(); n > base {
					t.Fatalf("%d goroutines after release, %d before", n, base)
				}
			})
		}
	}
}

// fanOutTest is one sender and n sinks whose handlers contain no scheduling
// point: the entry machine creates them and sends each an event per round,
// for rounds rounds, or until the step bound when rounds is negative. The
// sink and the ID slice are hoisted, so an execution allocates nothing of
// its own; the test runs one execution at a time.
func fanOutTest(n, rounds int) Test {
	sink := quietMachine()
	sinks := make([]MachineID, n)
	return Test{
		Name: "fan-out",
		Entry: func(ctx *Context) {
			for i := range sinks {
				sinks[i] = ctx.CreateMachine(sink, "sink")
			}
			for round := 0; rounds < 0 || round < rounds; round++ {
				for _, id := range sinks {
					ctx.Send(id, Signal("go"))
				}
			}
		},
	}
}

// TestMachinesBetweenHandlersOwnNoCoroutine makes the rule structural: one
// sender and 64 sinks whose handlers never yield need two coroutines — the
// sender's, suspended at its scheduling points, and one that runs every
// sink's Init and handlers back to back — where a coroutine per machine
// would be 65; and at no scheduling step of any execution does a machine
// between handlers hold a worker (the per-step cross-check, verifyEnabledSet,
// is on: it panics on a worker owned outside a handler or shared).
func TestMachinesBetweenHandlersOwnNoCoroutine(t *testing.T) {
	const sinks = 64
	test := fanOutTest(sinks, 2)
	for _, noReuse := range []bool{false, true} {
		base := runtime.NumGoroutine()
		o := resolved(Options{Iterations: 1, MaxSteps: 2000, NoReuse: noReuse})
		cfg := o.runtimeConfig(test, false)
		cfg.checkEnabled = true
		sched := NewRandomScheduler()
		pool := newExecPool(o)
		for seed := int64(1); seed <= 20; seed++ {
			sched.Prepare(seed, o.MaxSteps)
			r := pool.runtime(sched, cfg)
			if rep := r.execute(test); rep != nil {
				t.Fatalf("NoReuse=%v seed %d: unexpected bug: %v", noReuse, seed, rep.Error())
			}
			if len(r.machines) != sinks+1 || r.steps >= o.MaxSteps {
				t.Fatalf("NoReuse=%v seed %d: %d machines, %d steps: the run did not finish", noReuse, seed, len(r.machines), r.steps)
			}
			// Every worker ever created is idle on the free list by now.
			if n := len(r.freeWorkers); !noReuse && (n == 0 || n > 2) {
				t.Fatalf("seed %d: %d workers for %d machines, want 1 or 2", seed, n, sinks+1)
			}
			if g := runtime.NumGoroutine(); g > base+2 {
				t.Fatalf("NoReuse=%v seed %d: %d goroutines above the baseline, want at most 2", noReuse, seed, g-base)
			}
		}
		pool.release()
	}
}

// ResumeCounts counts the next() calls that resume a machine coroutine, by
// caller: the hub arming an idle worker with a machine between handlers
// (HubArm) or resuming one suspended mid-handler (HubResume), a trampoline
// resuming one (Trampoline), and the crash reaper and shutdown resuming one
// so that it unwinds.
type ResumeCounts struct {
	HubArm, HubResume, Trampoline, Reaper, Shutdown int
}

// Total is every resume, whoever made it.
func (c ResumeCounts) Total() int {
	return c.HubArm + c.HubResume + c.Trampoline + c.Reaper + c.Shutdown
}

// countResumes makes every worker on r's free list add each next() that
// resumes it to c, and returns what undoes that. Run on a warm pooled
// runtime, whose free list already holds every worker the execution will
// use, it counts them all. Coroutine switches nest, so the wrapped calls in
// progress are the stacks between the hub and the caller: none for the hub,
// one for a trampoline. Neither the hub nor a trampoline resumes a worker
// before the iteration that picked it emptied the pending-crash list, nor
// once killed is set, so those two single out the reaper and shutdown; and
// a worker the hub arms is not yet its machine's.
func countResumes(r *Runtime, c *ResumeCounts) (restore func()) {
	ws := slices.Clone(r.freeWorkers)
	nexts := make([]func() (struct{}, bool), len(ws))
	depth := 0
	for i, w := range ws {
		nexts[i] = w.next
		w.next = func() (struct{}, bool) {
			switch {
			case r.killed:
				c.Shutdown++
			case len(r.pendingCrash) > 0:
				c.Reaper++
			case depth > 0:
				c.Trampoline++
			case w.m.w == nil:
				c.HubArm++
			default:
				c.HubResume++
			}
			depth++
			defer func() { depth-- }()
			return nexts[i]()
		}
	}
	return func() {
		for i, w := range ws {
			w.next = nexts[i]
		}
	}
}

// resumeCount runs c's scripted execution on a warm pooled runtime and
// counts its resumes by caller, returning them with the execution's log.
func resumeCount(t *testing.T, c lifecycleCase) (ResumeCounts, []string) {
	t.Helper()
	o := resolved(Options{MaxSteps: c.maxSteps})
	cfg := o.runtimeConfig(c.test, true)
	cfg.checkEnabled = true
	pool := newExecPool(o)
	defer pool.release()
	var r *Runtime
	var counts ResumeCounts
	for _, measured := range []bool{false, true} {
		sched := c.script
		sched.Prepare(0, o.MaxSteps)
		r = pool.runtime(&sched, cfg)
		workers := len(r.freeWorkers)
		if measured {
			countResumes(r, &counts)
		}
		if rep := r.execute(c.test); rep != nil || sched.bad != "" {
			t.Fatalf("%s: bug %v, script error %q", c.name, rep, sched.bad)
		}
		if measured && len(r.freeWorkers) != workers {
			t.Fatalf("%s: %d workers after the measured execution, %d before: some were not counted", c.name, len(r.freeWorkers), workers)
		}
	}
	return counts, r.logLines()
}

// TestLoopTopDeathUnwindsNothing: a machine waiting at the top of its event
// loop holds no frame, so killing it — by Crash or at the end of the
// execution — resumes no coroutine and raises no killSignal, whether the
// execution ends by quiescence or at the step bound. A victim that is
// mid-handler or blocked in Receive is still unwound, exactly once, and its
// handler's deferred calls run before its staged writes are settled.
func TestLoopTopDeathUnwindsNothing(t *testing.T) {
	cases := map[string]lifecycleCase{}
	for _, c := range machineLifecycleCases() {
		cases[c.name] = c
	}
	for _, leg := range []struct {
		name   string
		reaped int
	}{
		{"crash-at-loop-top-with-staged-writes", 0},
		{"restart-after-loop-top-death", 0},
		{"bound-with-every-machine-at-its-loop-top", 0},
		{"crash-mid-handler-with-staged-writes", 1},
		{"crash-inside-receive-with-staged-writes", 1},
	} {
		c, ok := cases[leg.name]
		if !ok {
			t.Fatalf("no lifecycle case %q", leg.name)
		}
		counts, log := resumeCount(t, c)
		if counts.Reaper != leg.reaped || counts.Shutdown != 0 {
			t.Errorf("%s: the reaper resumed %d handlers and shutdown %d, want %d and 0", leg.name, counts.Reaper, counts.Shutdown, leg.reaped)
		}
		if leg.reaped == 0 {
			continue
		}
		crashed := slices.IndexFunc(log, func(l string) bool { return strings.HasSuffix(l, "harness(0) crashed store(1)") })
		if crashed < 0 || crashed+2 >= len(log) || !strings.HasSuffix(log[crashed+1], "write handler left") || !strings.Contains(log[crashed+2], "crash persisted") {
			t.Errorf("%s: the victim's deferred call did not run between the crash and its storage settlement:\n%s", leg.name, strings.Join(log, "\n"))
		}
	}
}

// fanOutPicks scripts fanOutTest(n, rounds) so that the sender and the sinks
// alternate: the sender starts, and each of its Creates and Sends is followed
// by a visit to the sink concerned — its Init, then its handler — and by the
// sender again.
func fanOutPicks(n, rounds int) []MachineID {
	picks := []MachineID{0}
	for v := 0; v < n*(rounds+1); v++ {
		picks = append(picks, MachineID(v%n+1), 0)
	}
	return picks
}

// TestResumeCountFanOut: a sender mid-handler alternates with n sinks whose
// handlers return at once. The hub arms a worker for the sender and one for
// the first sink visit; from then on that second worker, its stack free
// after every sink handler, is the trampoline: it resumes the sender itself
// and hosts every later sink inline. So a visit costs one resume, where
// relaying each one through the hub costs two: arming a worker for the sink
// and resuming the sender.
func TestResumeCountFanOut(t *testing.T) {
	const rounds = 2
	for _, n := range []int{1, 3, 8} {
		c := lifecycleCase{
			name: fmt.Sprintf("fan-out-%d", n), test: fanOutTest(n, rounds), maxSteps: 1000,
			script: scriptScheduler{picks: fanOutPicks(n, rounds)},
		}
		visits := n * (rounds + 1)
		want := ResumeCounts{HubArm: 2, Trampoline: visits}
		if got, _ := resumeCount(t, c); got != want {
			t.Errorf("%s: %d sink visits took %+v, want %+v", c.name, visits, got, want)
		}
	}
}

// timerFleetTest is k timers ticking the entry machine plus n-1 echo
// machines it pings; the entry machine waits for one tick of every timer
// (so each has stepped through its whole loop at least once), hands the
// live goroutine count to probe, and either stops the timers or leaves them
// running into the step bound.
func timerFleetTest(k, n int, stop bool, probe func(goroutines int)) Test {
	ticks := make([]Event, k)
	for i := range ticks {
		ticks[i] = Signal(fmt.Sprintf("tick%d", i))
	}
	return Test{
		Name: "timer-fleet",
		Entry: func(ctx *Context) {
			peers := make([]MachineID, n-1)
			for i := range peers {
				peers[i] = ctx.CreateMachine(&echoMachine{}, fmt.Sprintf("n%d", i))
			}
			timers := make([]TimerID, k)
			for i := range timers {
				timers[i] = ctx.StartTimer(fmt.Sprintf("t%d", i), ctx.ID(), ticks[i])
			}
			for _, p := range peers {
				ctx.Send(p, pingEvent{From: ctx.ID()})
				ctx.Receive("echo")
			}
			for i := range timers {
				ctx.Receive(ticks[i].Name())
			}
			probe(runtime.NumGoroutine())
			if stop {
				for _, id := range timers {
					ctx.StopTimer(id)
				}
			}
		},
	}
}

// TestTimersOwnNoCoroutine makes the stackless timer's saving structural:
// with k timers and n ordinary machines, no more than n coroutines are ever
// live — observed from inside the execution once every timer has been
// through its whole loop —, a pooled runtime's free list never holds more
// than n workers, no timer machine was ever handed one, and the goroutine
// count is back at the baseline after an unpooled execution and after
// release — whether the timers were stopped (reaped mid-phase) or ran into
// the step bound (reaped by shutdown).
func TestTimersOwnNoCoroutine(t *testing.T) {
	const k, n = 5, 3
	for _, stop := range []bool{true, false} {
		for _, noReuse := range []bool{false, true} {
			t.Run(fmt.Sprintf("stop=%v/NoReuse=%v", stop, noReuse), func(t *testing.T) {
				base := runtime.NumGoroutine()
				probed, peak := 0, 0
				test := timerFleetTest(k, n, stop, func(g int) {
					probed++
					peak = max(peak, g)
				})
				o := resolved(Options{Iterations: 1, MaxSteps: 600, NoReuse: noReuse})
				cfg := o.runtimeConfig(test, false)
				sched := NewRandomScheduler()
				pool := newExecPool(o)
				for seed := int64(1); seed <= 20; seed++ {
					sched.Prepare(seed, o.MaxSteps)
					r := pool.runtime(sched, cfg)
					if rep := r.execute(test); rep != nil {
						t.Fatalf("seed %d: unexpected bug: %v", seed, rep.Error())
					}
					if stop == (r.steps == o.MaxSteps) {
						t.Fatalf("seed %d: execution ended after %d steps (bound %d), stop=%v", seed, r.steps, o.MaxSteps, stop)
					}
					timers := 0
					for _, m := range r.machines {
						if m.timer {
							timers++
							if m.w != nil {
								t.Fatalf("seed %d: timer %s was handed a worker", seed, m.label())
							}
						}
					}
					if timers != k {
						t.Fatalf("seed %d: %d timer machines, want %d", seed, timers, k)
					}
					if len(r.freeWorkers) > n {
						t.Fatalf("seed %d: %d idle workers for %d ordinary machines", seed, len(r.freeWorkers), n)
					}
					if g := runtime.NumGoroutine(); noReuse && g > base {
						t.Fatalf("seed %d: %d goroutines after an unpooled execution, %d before", seed, g, base)
					}
				}
				pool.release()
				if g := runtime.NumGoroutine(); g > base {
					t.Fatalf("%d goroutines after release, %d before", g, base)
				}
				// stop=false executions may hit the bound before the probe.
				if stop && probed != 20 {
					t.Fatalf("probe ran in %d of 20 executions", probed)
				}
				if probed == 0 || peak > base+n {
					t.Fatalf("peak of %d goroutines inside %d probed executions, want at most %d (baseline) + %d (ordinary machines)",
						peak, probed, base, n)
				}
			})
		}
	}
}

// relayRingTest is n relays passing tokens around a ring, every hop a
// handler that ends in send: the entry machine creates the relays and
// launches the tokens, the last with send too, and from then on every step
// is a relay's. Tests with no end run to the step bound.
func relayRingTest(n, tokens int, send tailSend) Test {
	hop := Signal("hop")
	relay := &FuncMachine{OnEvent: func(ctx *Context, ev Event) {
		send(ctx, ctx.ID()%MachineID(n)+1, hop)
	}}
	return Test{
		Name: "relay-ring",
		Entry: func(ctx *Context) {
			for i := 0; i < n; i++ {
				ctx.CreateMachine(relay, "relay")
			}
			for i := 1; i < tokens; i++ {
				ctx.Send(MachineID(i%n+1), hop)
			}
			send(ctx, 1, hop)
		},
	}
}

// TestParkedMachinesOwnNoCoroutine makes the parked machine's saving
// structural: on a ring of relays whose handlers end in SendLast, no
// scheduling step finds a parked machine holding a worker (the per-step
// cross-check, verifyEnabledSet, is on), a pooled runtime never needs more
// than the two workers of the entry machine's set-up, nothing past that
// set-up resumes a coroutine — an execution makes exactly the resumes at a
// bound of 2000 steps it makes at 200 — and the goroutine count is back at
// the baseline after an unpooled execution and after release. The same
// ring with Send needs more workers and resumes one every hop.
func TestParkedMachinesOwnNoCoroutine(t *testing.T) {
	const relays, tokens = 4, 3
	base := runtime.NumGoroutine()
	for _, last := range []bool{true, false} {
		send := tailSend((*Context).Send)
		if last {
			send = (*Context).SendLast
		}
		test := relayRingTest(relays, tokens, send)
		// resumes counts the resumes of seed's execution at bound on a warm
		// pooled runtime, and the workers it has.
		resumes := func(seed int64, bound int) (total, workers int) {
			o := resolved(Options{MaxSteps: bound})
			cfg := o.runtimeConfig(test, false)
			cfg.checkEnabled = true
			sched := NewRandomScheduler()
			pool := newExecPool(o)
			defer pool.release()
			var counts ResumeCounts
			for _, measured := range []bool{false, true} {
				sched.Prepare(seed, bound)
				r := pool.runtime(sched, cfg)
				workers = len(r.freeWorkers)
				if measured {
					countResumes(r, &counts)
				}
				if rep := r.execute(test); rep != nil || r.steps != bound {
					t.Fatalf("last=%v seed %d: execution ended after %d of %d steps: %v", last, seed, r.steps, bound, rep)
				}
				if measured && len(r.freeWorkers) != workers {
					t.Fatalf("last=%v seed %d: %d workers after the measured execution, %d before: some were not counted", last, seed, len(r.freeWorkers), workers)
				}
			}
			return counts.Total(), workers
		}
		most := 0
		for seed := int64(1); seed <= 20; seed++ {
			short, _ := resumes(seed, 200)
			long, workers := resumes(seed, 2000)
			most = max(most, workers)
			if last && (long != short || workers > 2) {
				t.Fatalf("SendLast seed %d: %d resumes at the bound of 2000 steps, %d at 200; %d workers, want the same and at most 2", seed, long, short, workers)
			}
			if !last && long <= short {
				t.Fatalf("Send seed %d: %d resumes at the bound of 2000 steps, %d at 200: want more", seed, long, short)
			}
		}
		if !last && most <= 2 {
			t.Fatalf("Send: at most %d workers in 20 executions, want a stack held at a relay's Send", most)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("last=%v: %d goroutines after release, %d before", last, g, base)
		}
	}
	test := relayRingTest(relays, tokens, (*Context).SendLast)
	o := resolved(Options{MaxSteps: 500, NoReuse: true})
	sched := NewRandomScheduler()
	for seed := int64(1); seed <= 20; seed++ {
		sched.Prepare(seed, o.MaxSteps)
		if rep := newRuntime(sched, o.runtimeConfig(test, false)).execute(test); rep != nil {
			t.Fatalf("seed %d: unexpected bug: %v", seed, rep.Error())
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("seed %d: %d goroutines after an unpooled execution, %d before", seed, g, base)
		}
	}
}

// TestDyingMachineReapsThenSuccessorStarts: one handler crashes a live
// peer, creates a machine and halts, so the iteration after its death, on
// the stack it died on, picks a successor that never started and runs its
// Init right there — after the peer (scrubbed in place if it was back at its
// loop top, unwound through a nested next() if the schedule caught it
// mid-handler) left a second worker idle. Which stack hosts the successor
// must be invisible: the winning trace is byte-identical pooled and
// unpooled, on one exploration worker and on four.
func TestDyingMachineReapsThenSuccessorStarts(t *testing.T) {
	test := Test{
		Name: "dying-reaper",
		Entry: func(ctx *Context) {
			peer := ctx.CreateMachine(&echoMachine{}, "peer")
			ctx.Send(peer, pingEvent{From: ctx.ID()})
			ctx.Receive("echo")
			ctx.CreateMachine(&FuncMachine{OnInit: func(ctx *Context) {
				ctx.Crash(peer)
				ctx.CreateMachine(&FuncMachine{OnInit: func(ctx *Context) {
					ctx.Assert(ctx.RandomInt(16) != 0, "successor drew the buggy choice")
				}}, "successor")
				ctx.Halt()
			}}, "reaper")
		},
	}
	var want []byte
	var first Result
	for _, noReuse := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			res := MustExplore(test, Options{Iterations: 500, Seed: 3, Workers: workers, NoReuse: noReuse, NoReplayLog: true})
			if !res.BugFound {
				t.Fatalf("NoReuse=%v workers=%d: bug not found", noReuse, workers)
			}
			got, err := res.Report.Trace.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if want == nil {
				want, first = got, res
				if res.Report.Iteration == 0 {
					t.Fatal("bug at iteration 0: the seed no longer exercises recycled workers")
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("NoReuse=%v workers=%d: trace bytes differ from pooled/1-worker run", noReuse, workers)
			}
			if res.Executions != first.Executions || res.TotalSteps != first.TotalSteps {
				t.Fatalf("NoReuse=%v workers=%d: (%d executions, %d steps), want (%d, %d)",
					noReuse, workers, res.Executions, res.TotalSteps, first.Executions, first.TotalSteps)
			}
		}
	}
}

// TestPanicMidHandlerIsSafetyBug: a user panic on a machine stack that
// has already yielded and been resumed surfaces as a BugReport, pooled or
// not — never as a panic out of the next() that resumed it.
func TestPanicMidHandlerIsSafetyBug(t *testing.T) {
	test := Test{
		Name: "panic-mid-handler",
		Entry: func(ctx *Context) {
			m := ctx.CreateMachine(&FuncMachine{OnEvent: func(ctx *Context, ev Event) {
				ctx.Send(ctx.ID(), Signal("again"))
				panic("boom")
			}}, "crasher")
			ctx.Send(m, Signal("go"))
		},
	}
	for _, noReuse := range []bool{false, true} {
		res := MustExplore(test, Options{Iterations: 3, Seed: 1, Workers: 1, NoReuse: noReuse})
		if !res.BugFound || res.Report.Kind != SafetyBug || !strings.Contains(res.Report.Message, "panic in crasher") {
			t.Fatalf("NoReuse=%v: want a safety bug attributed to crasher, got %+v", noReuse, res)
		}
	}
}

// TestDivergenceInFinalStepIsAnError: the trace ends right where the
// iteration after a halting machine's death asks the scheduler for a
// successor, so the replay scheduler raises its divergence on the stack the
// machine died on, with no machine bound to it (unwound). It must come back
// as Replay's error.
func TestDivergenceInFinalStepIsAnError(t *testing.T) {
	test := Test{
		Name: "halt-then-diverge",
		Entry: func(ctx *Context) {
			ctx.CreateMachine(&echoMachine{}, "b")
			ctx.Halt()
		},
	}
	tr := newTrace(test.Name, "replay", 0, Faults{}, []Decision{
		{Kind: DecisionSchedule, Machine: 0},
		{Kind: DecisionSchedule, Machine: 0},
	})
	rep, err := Replay(test, tr, Options{})
	if rep != nil || err == nil || !strings.Contains(err.Error(), "beyond the 2 recorded") {
		t.Fatalf("Replay = (%v, %v), want a divergence past the recorded decisions", rep, err)
	}
}

// BenchmarkHandoffPrimitives is the shoot-out behind the engine's choice
// of control-transfer primitive. The engine's step cost is what it takes
// to stop one machine stack and continue another:
//
//   - chan-ring-8: one op = one wake + one park on buffered channels
//     around a ring of 8 goroutines — what a step cost when machines
//     handed off to each other through the Go scheduler;
//   - chan-pingpong: one op = a round trip between two goroutines (two
//     such handoffs), the classic figure;
//   - pull-hub-8: one op = one next() round trip from a hub over 8
//     iter.Pull sequences (two runtime coroutine switches, no scheduler
//     pass) — what resuming a suspended machine costs, from the hub or
//     from a trampoline; a step that hosts its pick inline costs none, and
//     BenchmarkSenderLoop counts how many resumes a sender loop makes per
//     step;
//   - go-spawn / pull-spawn: one op = create a stack, switch to it once
//     and tear it down — the per-machine cost of an unpooled execution.
func BenchmarkHandoffPrimitives(b *testing.B) {
	b.Run("chan-pingpong", func(b *testing.B) {
		ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range ping {
				pong <- struct{}{}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping <- struct{}{}
			<-pong
		}
		b.StopTimer()
		close(ping)
		<-done
	})
	b.Run("chan-ring-8", func(b *testing.B) {
		const n = 8
		var ring [n]chan int
		for i := range ring {
			ring[i] = make(chan int, 1)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for left := range ring[i] {
					if left == 0 {
						close(done)
						continue
					}
					ring[(i+1)%n] <- left - 1
				}
			}()
		}
		b.ResetTimer()
		ring[0] <- b.N
		<-done
		b.StopTimer()
		for _, c := range ring {
			close(c)
		}
		wg.Wait()
	})
	b.Run("pull-hub-8", func(b *testing.B) {
		const n = 8
		var next [n]func() (struct{}, bool)
		var stop [n]func()
		for i := range next {
			next[i], stop[i] = iter.Pull(func(yield func(struct{}) bool) {
				for yield(struct{}{}) {
				}
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next[i%n]()
		}
		b.StopTimer()
		for _, s := range stop {
			s()
		}
	})
	b.Run("go-spawn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := make(chan struct{}, 1)
			go func() { c <- struct{}{} }()
			<-c
		}
	})
	b.Run("pull-spawn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			next, stop := iter.Pull(func(yield func(struct{}) bool) { yield(struct{}{}) })
			next()
			stop()
		}
	})
}

// idleTimerScheduler rotates over the enabled machines and never lets a
// timer fire: under it a harness whose ordinary machines are all waiting
// for ticks is timers only.
type idleTimerScheduler struct{ i int }

func (s *idleTimerScheduler) Name() string              { return "idle-timers" }
func (s *idleTimerScheduler) Prepare(int64, int)        { s.i = 0 }
func (s *idleTimerScheduler) NextBool() bool            { return false }
func (s *idleTimerScheduler) NextInt(int) int           { return 0 }
func (s *idleTimerScheduler) NextFault(FaultChoice) int { return 0 }
func (s *idleTimerScheduler) NextMachine(enabled []MachineID) MachineID {
	s.i++
	return enabled[s.i%len(enabled)]
}

// BenchmarkTimerStep measures the stackless timer's step: three timers that
// never fire and an entry machine that is never runnable again, so every
// step but an execution's first four is one advance plus one stepTimer on
// the stack the entry machine's Init returned on — no coroutine switch. One op is one
// scheduling step (executions of 8000 steps on a pooled runtime, like
// steps-replsys). Invariant: 0 allocs/op and well under the repository
// benchmark's core.step_floor_ns (a step that does switch, ~100 ns) — a
// timer step that costs a switch, or boxes its re-arm event again, shows up
// here first.
func BenchmarkTimerStep(b *testing.B) {
	test := Test{
		Name: "timer-step",
		Entry: func(ctx *Context) {
			for _, name := range []string{"t0", "t1", "t2"} {
				ctx.StartTimer(name, ctx.ID(), Signal("tick"))
			}
		},
	}
	const execSteps = 8000
	o := resolved(Options{Iterations: 1, MaxSteps: execSteps, NoLivenessBoundCheck: true})
	cfg := o.runtimeConfig(test, false)
	sched := &idleTimerScheduler{}
	pool := newExecPool(o)
	defer pool.release()
	run := func(steps int) {
		cfg.maxSteps = steps
		sched.Prepare(0, steps)
		r := pool.runtime(sched, cfg)
		if rep := r.execute(test); rep != nil || r.steps != steps {
			b.Fatalf("execution ended after %d of %d steps: %v", r.steps, steps, rep)
		}
	}
	run(execSteps) // spawn the one coroutine, size the arena
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= execSteps {
		run(min(left, execSteps))
	}
}

// alternateScheduler picks the lowest enabled machine other than the one it
// just picked, if there is one: under it a sender (machine 0) looping Send
// alternates with the sink it just sent to.
type alternateScheduler struct{ last MachineID }

func (*alternateScheduler) Name() string              { return "alternate" }
func (*alternateScheduler) NextBool() bool            { return false }
func (*alternateScheduler) NextInt(int) int           { return 0 }
func (*alternateScheduler) NextFault(FaultChoice) int { return 0 }

func (s *alternateScheduler) Prepare(int64, int) { s.last = NoMachine }

func (s *alternateScheduler) NextMachine(enabled []MachineID) MachineID {
	next := enabled[0]
	if next == s.last && len(enabled) > 1 {
		next = enabled[1]
	}
	s.last = next
	return next
}

// BenchmarkSenderLoop is the replsys pattern: a sender loops Send
// mid-handler over four sinks whose handlers return at once, alternating
// with the sink it just sent to. Invariant (see benchSendLoop): resumes/step
// 0.5 — the stack a sink's handler returned on resumes the sender itself,
// one resume per two-step visit, where relaying through the hub reads 1.0 —
// and 0 allocs/op.
func BenchmarkSenderLoop(b *testing.B) { benchSendLoop(b, fanOutTest(4, -1)) }

// tailSendLoopTest is fanOutTest's twin in which no handler is ever
// suspended: a sender answers every ack by sending the next of n sinks a go
// with SendLast, and each sink acks with SendLast. The entry machine creates
// the sender and the sinks and starts the sender with SendLast. The
// machines, events and IDs are hoisted, so an execution allocates nothing of
// its own; the test runs one execution at a time.
func tailSendLoopTest(n int) Test {
	sinks := make([]MachineID, n)
	var sender MachineID
	next := 0
	goEv, ackEv := Event(Signal("go")), Event(Signal("ack"))
	senderM := &FuncMachine{OnEvent: func(ctx *Context, _ Event) {
		next = (next + 1) % n
		ctx.SendLast(sinks[next], goEv)
	}}
	sink := &FuncMachine{OnEvent: func(ctx *Context, _ Event) { ctx.SendLast(sender, ackEv) }}
	return Test{
		Name: "tail-send-loop",
		Entry: func(ctx *Context) {
			next = 0
			sender = ctx.CreateMachine(senderM, "sender")
			for i := range sinks {
				sinks[i] = ctx.CreateMachine(sink, "sink")
			}
			ctx.SendLast(sender, goEv)
		},
	}
}

// BenchmarkTailSendLoop is BenchmarkSenderLoop's twin with every send a
// SendLast (tailSendLoopTest): each step after the set-up is hosted or
// stepped inline on the stack the previous handler returned on. Invariant:
// resumes/step 0 and 0 allocs/op, at an ns/step below SenderLoop's.
func BenchmarkTailSendLoop(b *testing.B) { benchSendLoop(b, tailSendLoopTest(4)) }

// benchSendLoop runs test, a sender and its sinks under alternateScheduler,
// one 8000-step execution an op on a pooled runtime, like steps-replsys.
// ns/step is per scheduling step; resumes/step is what a warm 8000-step
// execution resumes beyond a 4000-step one, per step of the difference, so
// the set-up's resumes, the same in both, cancel out.
func benchSendLoop(b *testing.B, test Test) {
	const steps = 8000
	pool := newExecPool(Options{})
	defer pool.release()
	sched := &alternateScheduler{}
	run := func(bound int) {
		cfg := resolved(Options{MaxSteps: bound, NoLivenessBoundCheck: true}).runtimeConfig(test, false)
		sched.Prepare(0, bound)
		r := pool.runtime(sched, cfg)
		if rep := r.execute(test); rep != nil || r.steps != bound {
			b.Fatalf("execution ended after %d of %d steps: %v", r.steps, bound, rep)
		}
	}
	// The first execution spawns the coroutines and sizes the arena; the
	// next two count their resumes through wrapped workers.
	run(steps)
	var counts ResumeCounts
	restore := countResumes(pool.rt, &counts)
	run(steps / 2)
	short := counts.Total()
	run(steps)
	restore()
	long := counts.Total() - short
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(steps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	b.ReportMetric(float64(long-short)/(steps-steps/2), "resumes/step")
}
