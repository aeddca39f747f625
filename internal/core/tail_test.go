package core

import (
	"slices"
	"testing"
)

// The runtime's fair tail, on toy harnesses: a hot monitor at the step bound
// is a liveness bug only if it stays hot through a uniform tail as long
// again, whatever the scheduler.

// starvedWaiterTest keeps the progress monitor hot until a waiter sees the
// flag that the server's first step sets. Three waiters spin meanwhile, so
// a strategy that keeps running them starves the server up to the step
// bound: dfs's first branches always do, and pct does whenever the server
// ranks below all three, since its two priority changes demote only two.
// Once served, the waiters stop and the system quiesces.
func starvedWaiterTest() Test {
	return Test{
		Name: "starved-waiter",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			served := false
			for i := 0; i < 3; i++ {
				ctx.CreateMachine(&FuncMachine{
					OnInit: func(ctx *Context) { ctx.Send(ctx.ID(), Signal("poll")) },
					OnEvent: func(ctx *Context, ev Event) {
						if served {
							ctx.Monitor("progress", Signal("done"))
						} else {
							ctx.Send(ctx.ID(), Signal("poll"))
						}
					},
				}, "waiter")
			}
			ctx.CreateMachine(&FuncMachine{OnInit: func(*Context) { served = true }}, "server")
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

// tailSchedulers are the strategies the tail is held to: the fair one, the
// two adaptive ones, and the exhaustive one (the dfs oracle, exploreWith),
// which has no stream of its own.
var tailSchedulers = []string{"random", "pct", "delay", "dfs"}

// TestFairTailClearsAStarvedWaiter: a clean system that pct and dfs starve
// until the bound reports nothing, under every strategy, and every
// execution stays within twice the bound.
func TestFairTailClearsAStarvedWaiter(t *testing.T) {
	const maxSteps = 100
	for _, name := range tailSchedulers {
		o := Options{Scheduler: name, Iterations: 40, MaxSteps: maxSteps, Seed: 1, Workers: 1}
		res := exploreWith(starvedWaiterTest(), o)
		if res.BugFound {
			t.Fatalf("%s: starved waiter reported: %v", name, res.Report.Error())
		}
		if max := int64(res.Executions) * 2 * maxSteps; res.TotalSteps > max {
			t.Fatalf("%s: %d steps in %d executions, over twice the bound", name, res.TotalSteps, res.Executions)
		}
	}
}

// TestFairTailKeepsARealLivenessBug: a system that never cools still
// reports under every strategy, at twice the bound, and the report
// round-trips through its encoding to the same violation.
func TestFairTailKeepsARealLivenessBug(t *testing.T) {
	const maxSteps = 200
	for _, name := range tailSchedulers {
		o := Options{Scheduler: name, Iterations: 5, MaxSteps: maxSteps, Seed: 1, Workers: 1}
		res := exploreWith(hotLooperTest(), o)
		if !res.BugFound || res.Report.Kind != LivenessBug {
			t.Fatalf("%s: want a liveness bug, got %v", name, res)
		}
		if res.Report.Step != 2*maxSteps {
			t.Fatalf("%s: reported at step %d, want twice the bound, %d", name, res.Report.Step, 2*maxSteps)
		}
		data, err := res.Report.Trace.Encode()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := DecodeTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(hotLooperTest(), tr, Options{MaxSteps: maxSteps})
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if rep == nil || rep.Kind != res.Report.Kind || firstLine(rep.Message) != firstLine(res.Report.Message) {
			t.Fatalf("%s: replay reproduced %v, recorded %v", name, rep, res.Report)
		}
	}
}

// TestNoExecutionRunsPastTwiceTheBound drives executions directly, one
// runtime each: the hot looper under every strategy, and under pct pinned to
// a length estimate short enough that its tail starts before the bound.
// Each runs exactly twice the bound and no further.
func TestNoExecutionRunsPastTwiceTheBound(t *testing.T) {
	const maxSteps = 150
	o := resolved(Options{MaxSteps: maxSteps})
	test := hotLooperTest()
	for _, name := range tailSchedulers {
		for _, hint := range []int{0, 10} {
			s := newScheduler(t, name, hint)
			cfg := o.runtimeConfig(test, false)
			cfg.lengthHint = hint
			for i := 0; i < 5; i++ {
				cfg.seed = execSeed(1, i)
				if s.Prepare(cfg.seed, maxSteps); treeSpent(s) {
					break
				}
				r := newRuntime(s, cfg)
				r.execute(test)
				if r.steps != 2*maxSteps {
					t.Fatalf("%s, hint %d, execution %d: ran %d steps, want twice the bound, %d", name, hint, i, r.steps, 2*maxSteps)
				}
			}
		}
	}
}

// pingersTest is a small schedule tree: two machines send themselves two
// pings each after the harness starts them, and the first one's last ping
// cools the monitor. Under a bound of eight steps, every leaf where the
// first machine has not finished reaches the bound hot, and one more bound
// is time enough for both to finish.
func pingersTest() Test {
	pinger := func(last bool) *FuncMachine {
		n := 0
		return &FuncMachine{
			OnInit: func(ctx *Context) { ctx.Send(ctx.ID(), Signal("ping")) },
			OnEvent: func(ctx *Context, ev Event) {
				if n++; n < 2 {
					ctx.Send(ctx.ID(), Signal("ping"))
				} else if last {
					ctx.Monitor("progress", Signal("done"))
				}
			},
		}
	}
	return Test{
		Name: "pingers",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			ctx.CreateMachine(pinger(true), "a")
			ctx.CreateMachine(pinger(false), "b")
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

// TestDFSTakesTheTailForALeaf: dfs exhausts a tree whose hot-at-bound
// leaves run on in the tail in as many executions as with the bound check
// off, which ends every leaf at the bound: the tail adds no branch to its
// tree, and no leaf reports.
func TestDFSTakesTheTailForALeaf(t *testing.T) {
	o := Options{Iterations: 10000, MaxSteps: 8, Seed: 1}
	ref, refSpent := exploreDFS(pingersTest(), Options{Iterations: 10000, MaxSteps: 8, Seed: 1, NoLivenessBoundCheck: true})
	res, spent := exploreDFS(pingersTest(), o)
	if res.BugFound {
		t.Fatalf("a leaf reported: %v", res.Report.Error())
	}
	if !refSpent || !spent || res.Executions != ref.Executions {
		t.Fatalf("dfs exhausted the tree in %d executions (%v) with the tail, %d (%v) without", res.Executions, spent, ref.Executions, refSpent)
	}
	if res.TotalSteps <= ref.TotalSteps {
		t.Fatalf("no leaf ran on in the tail: %d steps with it, %d without", res.TotalSteps, ref.TotalSteps)
	}
}

// coolingLooperTest keeps the progress monitor hot while a looper sends
// itself n ticks, then cools it and stops.
func coolingLooperTest(n int) Test {
	return Test{
		Name: "cooling-looper",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			left := n
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) { ctx.Send(ctx.ID(), Signal("tick")) },
				OnEvent: func(ctx *Context, ev Event) {
					if left--; left > 0 {
						ctx.Send(ctx.ID(), Signal("tick"))
					} else {
						ctx.Monitor("progress", Signal("done"))
					}
				},
			}, "looper")
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

// TestCalibrationPinsAtMostTheBound: a calibration run that reaches the
// bound hot and cools in the tail ends clean past the bound, but the
// length estimate it pins is the bound, so no probe is placed where the
// tail has already replaced the scheduler.
func TestCalibrationPinsAtMostTheBound(t *testing.T) {
	const maxSteps = 100
	for _, name := range []string{"pct", "delay"} {
		o := resolved(Options{Scheduler: name, Iterations: 3, MaxSteps: maxSteps, Seed: 1, Workers: 1})
		ex, err := exploreRange(coolingLooperTest(3*maxSteps/4), o, Shard{From: 0, To: PlanSize(o)}, false)
		if err != nil {
			t.Fatal(err)
		}
		if ex.bug != nil {
			t.Fatalf("%s: the cooling looper reported: %v", name, ex.bug.Error())
		}
		if ex.stats[0].TotalSteps <= 3*maxSteps {
			t.Fatalf("%s: %d steps in 3 executions, want every one past the bound", name, ex.stats[0].TotalSteps)
		}
		if h := ex.members[0].lengthHint; h != maxSteps {
			t.Fatalf("%s: calibration pinned a length estimate of %d, want the bound, %d", name, h, maxSteps)
		}
	}
}

// switchAt answers like its scheduler for the first n scheduling choices
// and then like a random scheduler continuing that scheduler's stream: the
// reference the runtime's tail is held to, built outside the runtime.
type switchAt struct {
	Scheduler
	n    int
	tail *randomScheduler
}

func (w *switchAt) NextMachine(enabled []MachineID) MachineID {
	if w.n > 0 {
		w.n--
		return w.Scheduler.NextMachine(enabled)
	}
	if w.tail == nil {
		w.tail = &randomScheduler{*w.Scheduler.(interface{ stream() *draws }).stream()}
	}
	return w.tail.NextMachine(enabled)
}

// spinnersTest runs three machines that send themselves ticks forever with
// the progress monitor hot: every step has three enabled machines to pick
// from, and pct's priorities keep picking the same one.
func spinnersTest() Test {
	return Test{
		Name: "spinners",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			for i := 0; i < 3; i++ {
				ctx.CreateMachine(&FuncMachine{
					OnInit:  func(ctx *Context) { ctx.Send(ctx.ID(), Signal("tick")) },
					OnEvent: func(ctx *Context, ev Event) { ctx.Send(ctx.ID(), Signal("tick")) },
				}, "spinner")
			}
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

// TestTailContinuesTheMembersStream: under pct pinned to an estimate of 10,
// the runtime's tail starts after 80 choices and its decisions are those a
// random scheduler continuing pct's own seeded stream makes, so pct's and
// delay's tail bytes did not move when the tail left them. The reference
// runs with no estimate told to the runtime and the bound check off, so
// its only switch is the wrapper's.
func TestTailContinuesTheMembersStream(t *testing.T) {
	const maxSteps, hint = 200, 10
	test := spinnersTest()
	for _, name := range []string{"pct", "delay"} {
		o := resolved(Options{MaxSteps: maxSteps, NoLivenessBoundCheck: true})
		for i := 0; i < 5; i++ {
			seed := execSeed(1, i)
			run := func(s Scheduler, lengthHint int) []Decision {
				cfg := o.runtimeConfig(test, false)
				cfg.seed, cfg.lengthHint = seed, lengthHint
				s.Prepare(seed, maxSteps)
				r := newRuntime(s, cfg)
				if rep := r.execute(test); rep != nil {
					t.Fatalf("%s: %v", name, rep.Error())
				}
				return r.dec.decode()
			}
			got := run(newScheduler(t, name, hint), hint)
			want := run(&switchAt{Scheduler: newScheduler(t, name, hint), n: fairTailFactor * hint}, 0)
			plain := run(newScheduler(t, name, hint), 0)
			if len(got) != maxSteps || !slices.Equal(got, want) {
				t.Fatalf("%s, execution %d: the runtime's tail decided\n%v\nthe member's stream continued decides\n%v", name, i, got, want)
			}
			if name == "pct" && slices.Equal(got, plain) {
				t.Fatalf("pct, execution %d: the tail changed no decision, so the comparison holds nothing", i)
			}
		}
	}
}

// lateCoolerTest keeps the progress monitor hot while two machines ping
// themselves n times each, and cools it once both have finished. The step
// count is the same under every schedule, so n sets how long the hot prefix
// runs before the system cools and quiesces.
func lateCoolerTest(n int) Test {
	return Test{
		Name: "late-cooler",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			finished := 0
			for _, name := range []string{"a", "b"} {
				pings := 0
				ctx.CreateMachine(&FuncMachine{
					OnInit: func(ctx *Context) { ctx.Send(ctx.ID(), Signal("ping")) },
					OnEvent: func(ctx *Context, ev Event) {
						if pings++; pings < n {
							ctx.Send(ctx.ID(), Signal("ping"))
						} else if finished++; finished == 2 {
							ctx.Monitor("progress", Signal("done"))
						}
					},
				}, name)
			}
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

// TestLongHotPrefixIsNoLivenessBug: a monitor hot for nine tenths of the
// bound and then cooled before quiescence is no liveness bug under any
// registered scheduler or the dfs oracle. A verdict comes only from a
// monitor hot at quiescence or still hot at twice the bound, never from the
// length of a hot prefix.
func TestLongHotPrefixIsNoLivenessBug(t *testing.T) {
	const maxSteps, pings = 200, 44 // 4·pings+5 = 181 steps an execution
	for _, name := range append(SchedulerNames(), "dfs") {
		t.Run(name, func(t *testing.T) {
			o := Options{Scheduler: name, Iterations: 20, MaxSteps: maxSteps, Seed: 1, Workers: 1}
			res := exploreWith(lateCoolerTest(pings), o)
			if res.BugFound {
				t.Fatalf("reported: %v", res.Report.Error())
			}
			if n := int64(res.Executions); res.TotalSteps < n*maxSteps*9/10 || res.TotalSteps >= n*maxSteps {
				t.Fatalf("%d steps in %d executions, want each to quiesce within the last tenth of the bound", res.TotalSteps, n)
			}
		})
	}
}
