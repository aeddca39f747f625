package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// boolComboTest triggers a bug iff all three RandomBool choices are true.
// With a single machine there is no schedule nondeterminism, so the choice
// tree has exactly 2^3 = 8 leaves.
func boolComboTest() Test {
	return Test{
		Name: "bools",
		Entry: func(ctx *Context) {
			a, b, c := ctx.RandomBool(), ctx.RandomBool(), ctx.RandomBool()
			ctx.Assert(!(a && b && c), "all true")
		},
	}
}

func TestDFSEnumeratesChoiceTree(t *testing.T) {
	res, _ := exploreDFS(boolComboTest(), Options{Iterations: 100})
	if !res.BugFound {
		t.Fatal("dfs did not find the all-true combination")
	}
	if res.Executions != 8 {
		t.Fatalf("executions = %d, want 8 (the all-true leaf is explored last)", res.Executions)
	}
}

func TestDFSExhaustsCleanProgram(t *testing.T) {
	test := Test{
		Name: "bools-clean",
		Entry: func(ctx *Context) {
			ctx.RandomBool()
			ctx.RandomBool()
		},
	}
	res, exhausted := exploreDFS(test, Options{Iterations: 100})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if !exhausted {
		t.Fatal("dfs did not report exhaustion")
	}
	if res.Executions != 4 {
		t.Fatalf("executions = %d, want 4", res.Executions)
	}
}

// raceTest reports a bug when machine b's event reaches the collector
// before machine a's — a purely schedule-dependent outcome.
func raceTest() Test {
	return Test{
		Name: "race",
		Entry: func(ctx *Context) {
			collector := ctx.CreateMachine(&FuncMachine{
				OnEvent: func(ctx *Context, ev Event) {
					ctx.Assert(ev.Name() != "b", "b arrived first")
					ctx.Halt()
				},
			}, "collector")
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) { ctx.Send(collector, Signal("a")) },
			}, "a-sender")
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) { ctx.Send(collector, Signal("b")) },
			}, "b-sender")
		},
	}
}

func TestDFSFindsOrderingBug(t *testing.T) {
	res, _ := exploreDFS(raceTest(), Options{Iterations: 10000})
	if !res.BugFound {
		t.Fatal("dfs did not find the ordering bug")
	}
}

func TestRandomFindsOrderingBug(t *testing.T) {
	res := MustExplore(raceTest(), Options{Scheduler: "random", Iterations: 1000, Seed: 42})
	if !res.BugFound {
		t.Fatal("random did not find the ordering bug")
	}
}

func TestPCTFindsOrderingBug(t *testing.T) {
	// The engine calibrates pct's program-length estimate from iteration
	// 0, so the discovering iteration no longer depends on worker count.
	res := MustExplore(raceTest(), Options{Scheduler: "pct", Iterations: 1000, Seed: 42})
	if !res.BugFound {
		t.Fatal("pct did not find the ordering bug")
	}
}

func TestRoundRobinIsDeterministic(t *testing.T) {
	// Two runs with different seeds take identical schedules (round-robin
	// ignores the RNG for machine selection), so results must match.
	r1 := MustExplore(raceTest(), Options{Scheduler: "rr", Iterations: 1, Seed: 1})
	r2 := MustExplore(raceTest(), Options{Scheduler: "rr", Iterations: 1, Seed: 999})
	if r1.BugFound != r2.BugFound {
		t.Fatalf("rr nondeterministic: %v vs %v", r1.BugFound, r2.BugFound)
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := lookupScheduler("quantum"); err == nil {
		t.Fatal("expected error for unknown scheduler")
	}
}

func TestSeedReproducibility(t *testing.T) {
	a := MustExplore(raceTest(), Options{Scheduler: "random", Iterations: 500, Seed: 123})
	b := MustExplore(raceTest(), Options{Scheduler: "random", Iterations: 500, Seed: 123})
	if a.BugFound != b.BugFound || a.Executions != b.Executions {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", a, b)
	}
	if a.BugFound && a.Choices != b.Choices {
		t.Fatalf("same seed, different choice counts: %d vs %d", a.Choices, b.Choices)
	}
}

func TestPCTChangePointsRespectBudget(t *testing.T) {
	s := NewPCTScheduler(3).(*pctScheduler)
	s.Prepare(99, 1000)
	if len(s.points) > 3 {
		t.Fatalf("change points = %d, want <= 3", len(s.points))
	}
}

// TestProbeCursorMatchesContains holds probe's cursor over the sorted points
// to the membership test over the points in draw order that it replaced, for
// both adaptive schedulers: depths 1–4 over bounds of 6 to 13 steps force
// duplicate points, a zero hint places them within the step bound, and
// every third choice point is a fault point, which shares the step counter
// with the scheduling points (probe, as NextMachine calls it). The reference
// mirrors the scheduler's generator, so a fault answer also says whether the
// probe fired there.
func TestProbeCursorMatchesContains(t *testing.T) {
	const maxSteps = 6
	faultAt := FaultChoice{Kind: FaultCrash, N: 4, Machine: NoMachine, Candidates: []MachineID{1, 2, 3}}
	duplicates := 0
	for _, build := range []func(int) Scheduler{NewPCTScheduler, NewDelayScheduler} {
		for depth := 1; depth <= 4; depth++ {
			for _, hint := range []int{0, 10, 13} {
				s := build(depth)
				name := s.Name()
				var p *probes
				switch s := s.(type) {
				case *pctScheduler:
					p = &s.probes
				case *delayScheduler:
					p = &s.probes
				}
				p.SetLengthHint(hint)
				for seed := int64(0); seed < 200; seed++ {
					bound := hint
					if bound < 10 {
						bound = maxSteps
					}
					ref := rand.New(rand.NewSource(seed))
					var points []int
					for i := 0; i < depth; i++ {
						points = append(points, 1+ref.Intn(bound))
					}
					if len(slices.Compact(slices.Sorted(slices.Values(points)))) < depth {
						duplicates++
					}
					s.Prepare(seed, maxSteps)
					last := 7 + int(seed%7) // some points lie beyond the end
					for step := 1; step <= last; step++ {
						fires := slices.Contains(points, step)
						at := func() string {
							return fmt.Sprintf("%s depth %d hint %d seed %d step %d (points %v)", name, depth, hint, seed, step, points)
						}
						if step%3 != 0 {
							if got := p.probe(); got != fires {
								t.Fatalf("%s: probe() = %v, want %v", at(), got, fires)
							}
							continue
						}
						var want int
						if fires {
							want = 1 + ref.Intn(faultAt.N-1)
						} else {
							want = ref.Intn(faultAt.N)
						}
						if got := s.NextFault(faultAt); got != want {
							t.Fatalf("%s: NextFault = %d, want %d", at(), got, want)
						}
					}
				}
			}
		}
	}
	if duplicates == 0 {
		t.Fatal("no execution drew a duplicate point")
	}
}

// TestRePrepareForgetsEarlierExecutions holds both adaptive schedulers, at
// depths 1–4, with and without a length hint, to answers that depend only on
// (seed, hint, step bound) and the call sequence: an instance that has run
// executions of different lengths and is then prepared with a seed answers
// exactly as a fresh instance prepared with it.
func TestRePrepareForgetsEarlierExecutions(t *testing.T) {
	const maxSteps = 300
	sets := [][]MachineID{{0, 1, 2}, {1, 3}, {0, 2, 4, 5}, {5}, {2, 3, 4}, {0, 5}}
	crash := FaultChoice{Kind: FaultCrash, N: 4, Machine: NoMachine, Candidates: []MachineID{1, 2, 3}}
	// drive answers n choices, a mix of every kind, and returns the answers.
	drive := func(s Scheduler, n int) []int {
		var got []int
		for i := 0; i < n; i++ {
			switch {
			case i%5 == 4:
				got = append(got, s.NextFault(crash))
			case i%7 == 6:
				got = append(got, s.NextInt(5))
			case i%11 == 10:
				b := 0
				if s.NextBool() {
					b = 1
				}
				got = append(got, b)
			default:
				got = append(got, int(s.NextMachine(sets[i%len(sets)])))
			}
		}
		return got
	}
	for _, build := range []func(int) Scheduler{NewPCTScheduler, NewDelayScheduler} {
		for depth := 1; depth <= 4; depth++ {
			for _, hint := range []int{0, 40} {
				instance := func() Scheduler {
					s := build(depth)
					if hint > 0 {
						s.(LengthHinted).SetLengthHint(hint)
					}
					return s
				}
				used := instance()
				name := used.Name()
				for i, n := range []int{17, 250, 40, 3, 120} {
					used.Prepare(int64(100+i), maxSteps)
					drive(used, n)
				}
				for seed := int64(0); seed < 20; seed++ {
					fresh := instance()
					used.Prepare(seed, maxSteps)
					fresh.Prepare(seed, maxSteps)
					if got, want := drive(used, maxSteps), drive(fresh, maxSteps); !slices.Equal(got, want) {
						i := 0
						for got[i] == want[i] {
							i++
						}
						t.Fatalf("%s depth %d hint %d seed %d: answer %d is %d after earlier executions, %d on a fresh instance",
							name, depth, hint, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// spinTest is the pattern that dominates pct's Table 2 cells: a machine that
// keeps sending itself an event stays enabled and, at top priority, is picked
// again at every Send, beside two machines parked in Receive on an event
// nothing sends. The machines, the event and the predicate are hoisted, so an
// execution allocates nothing of its own.
func spinTest() Test {
	step := Event(Signal("step"))
	never := func(Event) bool { return false }
	parked := &FuncMachine{OnInit: func(ctx *Context) { ctx.ReceiveWhere("never", never) }}
	spinner := &FuncMachine{
		OnInit:  func(ctx *Context) { ctx.Send(ctx.ID(), step) },
		OnEvent: func(ctx *Context, _ Event) { ctx.Send(ctx.ID(), step) },
	}
	return Test{
		Name: "pct-spin",
		Entry: func(ctx *Context) {
			ctx.CreateMachine(parked, "parked0")
			ctx.CreateMachine(parked, "parked1")
			ctx.CreateMachine(spinner, "spinner")
		},
	}
}

// BenchmarkPCTSpin measures pct's step on spinTest: one pooled runtime, one
// 4096-step execution per op, at the engine's calibrated length. Run it at
// GOMAXPROCS=1. Invariant: 0 allocs/op; ns/step is the cost of a re-pick of
// the spinning machine, a priority scan of the three-machine enabled set.
func BenchmarkPCTSpin(b *testing.B) {
	const steps = 4096
	test := spinTest()
	s := NewPCTScheduler(probeDepth)
	s.(LengthHinted).SetLengthHint(steps)
	pool := newExecPool(Options{})
	defer pool.release()
	run := func(seed int64) int {
		s.Prepare(seed, steps)
		r := pool.runtime(s, runtimeConfig{maxSteps: steps})
		r.execute(test)
		return r.steps
	}
	run(0) // builds the runtime, its coroutines and the scheduler's storage
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += run(int64(i) + 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/step")
}

// BenchmarkSchedulerPrepare measures the per-execution fixed cost every
// scheduler adds before the first step: Prepare (which reseeds) and the
// first 32 decisions (24 scheduling points, 8 data choices), roughly what a
// short crash-enumeration execution draws. Steady state must not allocate.
func BenchmarkSchedulerPrepare(b *testing.B) {
	enabled := []MachineID{0, 1, 2, 3}
	for _, name := range SchedulerNames() {
		b.Run(name, func(b *testing.B) {
			s := newScheduler(b, name, 0)
			s.Prepare(0, 1000) // first Prepare builds the generator
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Prepare(int64(i), 1000)
				for k := 0; k < 8; k++ {
					s.NextMachine(enabled)
					s.NextMachine(enabled)
					s.NextMachine(enabled)
					s.NextInt(5)
				}
			}
		})
	}
}
