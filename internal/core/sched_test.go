package core

import (
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
	res := MustExplore(boolComboTest(), Options{Scheduler: "dfs", Iterations: 100})
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
	res := MustExplore(test, Options{Scheduler: "dfs", Iterations: 100})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if !res.Exhausted {
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
	res := MustExplore(raceTest(), Options{Scheduler: "dfs", Iterations: 10000})
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
	if _, err := NewScheduler("quantum", 0); err == nil {
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

// BenchmarkSchedulerPrepare measures the per-execution fixed cost every
// scheduler adds before the first step: Prepare (which reseeds) and the
// first 32 decisions (24 scheduling points, 8 data choices), roughly what a
// short crash-enumeration execution draws. Steady state must not allocate.
func BenchmarkSchedulerPrepare(b *testing.B) {
	enabled := []MachineID{0, 1, 2, 3}
	for _, name := range SchedulerNames() {
		f, err := NewSchedulerFactory(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		if f.Sequential() {
			continue
		}
		b.Run(name, func(b *testing.B) {
			s := f.New()
			s.Prepare(0, 1000) // first Prepare builds the generator
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Prepare(int64(i), 1000)
				cur := NoMachine
				for k := 0; k < 8; k++ {
					cur = s.NextMachine(enabled, cur)
					cur = s.NextMachine(enabled, cur)
					cur = s.NextMachine(enabled, cur)
					s.NextInt(5)
				}
			}
		})
	}
}
