package gostorm_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/replsys"
)

// lifoScheduler is a user-defined exploration strategy living entirely
// outside internal/: at every scheduling point it picks the most recently
// created enabled machine (highest MachineID), with data choices drawn
// from the seed's generator. It exists to prove the extension surface —
// registration, conformance, portfolio membership — works without
// touching core.
type lifoScheduler struct {
	rng *rand.Rand
}

func (s *lifoScheduler) Name() string { return "lifo" }

func (s *lifoScheduler) Prepare(seed int64, _ int) bool {
	s.rng.Seed(seed)
	return true
}

func (s *lifoScheduler) NextMachine(enabled []gostorm.MachineID, _ gostorm.MachineID) gostorm.MachineID {
	return enabled[len(enabled)-1]
}

func (s *lifoScheduler) NextBool() bool { return s.rng.Intn(2) == 0 }

func (s *lifoScheduler) NextInt(n int) int { return s.rng.Intn(n) }

// registerLIFO registers the scheduler once for this test binary.
var registerLIFO = func() error {
	return gostorm.RegisterScheduler("lifo", gostorm.SchedulerSpec{
		New: func(int) gostorm.Scheduler { return &lifoScheduler{rng: gostorm.NewRand()} },
	})
}()

// TestRegisteredSchedulerIsFirstClass: a user-registered scheduler is
// listed, passes the same conformance contract as the built-ins, runs
// via WithScheduler, and participates in a portfolio with deterministic
// attribution — all through the public surface, with no core edits.
func TestRegisteredSchedulerIsFirstClass(t *testing.T) {
	if registerLIFO != nil {
		t.Fatalf("RegisterScheduler: %v", registerLIFO)
	}
	if !slices.Contains(gostorm.SchedulerNames(), "lifo") {
		t.Fatalf("registered scheduler missing from SchedulerNames: %v", gostorm.SchedulerNames())
	}
	if err := gostorm.VerifyScheduler("lifo"); err != nil {
		t.Fatalf("conformance: %v", err)
	}

	build := func() gostorm.Test {
		return replsys.Scenario(replsys.ScenarioConfig{Monitors: replsys.WithSafety})
	}

	// Single-scheduler run through the public entry point.
	res, err := gostorm.Explore(build(),
		gostorm.WithScheduler("lifo"),
		gostorm.WithIterations(50),
		gostorm.WithMaxSteps(2000),
		gostorm.WithSeed(1),
		gostorm.WithNoReplayLog(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.BugFound {
		// LIFO order alone doesn't interleave the duplicate sync reports;
		// the point here is that the engine drove it, not what it finds.
		t.Logf("lifo found: %v", res.Report.Error())
	}

	// Portfolio membership: the registered scheduler races alongside the
	// built-ins, and the result is deterministic across worker counts.
	var prev gostorm.Result
	for i, workers := range []int{1, 4} {
		res, err := gostorm.Explore(build(),
			gostorm.WithPortfolio("lifo", "random", "pct"),
			gostorm.WithIterations(3000),
			gostorm.WithMaxSteps(2000),
			gostorm.WithSeed(1),
			gostorm.WithWorkers(workers),
			gostorm.WithNoReplayLog(),
		)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BugFound {
			t.Fatal("portfolio with registered member did not find the seeded bug")
		}
		if len(res.Portfolio) != 3 || res.Portfolio[0].Scheduler != "lifo" {
			t.Fatalf("member stats: %+v", res.Portfolio)
		}
		if i > 0 {
			if res.Winner != prev.Winner || res.Report.Iteration != prev.Report.Iteration ||
				res.Executions != prev.Executions || res.TotalSteps != prev.TotalSteps {
				t.Fatalf("portfolio with registered member is worker-count-dependent:\n1 worker:  %+v\n%d workers: %+v",
					prev, workers, res)
			}
		}
		prev = res
	}

	// The winning trace replays exactly, like any engine-reported bug.
	rep, err := gostorm.Replay(build(), prev.Report.Trace, gostorm.WithMaxSteps(2000))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep == nil || rep.Message != prev.Report.Message {
		t.Fatalf("replay mismatch: %+v vs %+v", rep, prev.Report)
	}
}

// timerLiar is a misbehaving user scheduler: it always runs the oldest
// enabled machine and answers 2 to a timer's two-outcome fire choice.
type timerLiar struct{}

func (timerLiar) Name() string            { return "timer-liar" }
func (timerLiar) Prepare(int64, int) bool { return true }
func (timerLiar) NextBool() bool          { return false }
func (timerLiar) NextInt(int) int         { return 0 }
func (timerLiar) NextMachine(enabled []gostorm.MachineID, _ gostorm.MachineID) gostorm.MachineID {
	return enabled[0]
}

func (timerLiar) NextFault(c gostorm.FaultChoice) int {
	if c.Kind == gostorm.FaultTimer {
		return 2
	}
	return 0
}

var registerTimerLiar = gostorm.RegisterScheduler("timer-liar", gostorm.SchedulerSpec{
	New: func(int) gostorm.Scheduler { return timerLiar{} },
})

// TestOutOfRangeTimerAnswerIsAttributedToTheTimer: a timer's step runs on
// whatever stack reached the scheduling point that picked it, so a
// scheduler's out-of-range answer to its fire choice must not surface as a
// panic of the machine that lent the stack (the entry machine, blocked in
// Receive) nor re-panic out of the engine when the hub ran the step (the
// entry machine has halted): it is a safety violation naming the timer and
// the scheduler.
func TestOutOfRangeTimerAnswerIsAttributedToTheTimer(t *testing.T) {
	if registerTimerLiar != nil {
		t.Fatalf("RegisterScheduler: %v", registerTimerLiar)
	}
	for _, c := range []struct {
		name  string
		after func(ctx *gostorm.Context)
	}{
		{"on a host machine's stack", func(ctx *gostorm.Context) { ctx.Receive("tick") }},
		{"on the hub", func(ctx *gostorm.Context) { ctx.Halt() }},
	} {
		test := gostorm.Test{
			Name: "timer-liar",
			Entry: func(ctx *gostorm.Context) {
				ctx.StartTimer("Timer0", ctx.ID(), gostorm.Signal("tick"))
				c.after(ctx)
			},
		}
		for _, pooled := range []bool{true, false} {
			opts := []gostorm.Option{
				gostorm.WithScheduler("timer-liar"), gostorm.WithIterations(3), gostorm.WithMaxSteps(100),
				gostorm.WithWorkers(1), gostorm.WithNoReplayLog(),
			}
			if !pooled {
				opts = append(opts, gostorm.WithNoReuse())
			}
			res, err := gostorm.Explore(test, opts...)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			const want = "core: timer-liar scheduler: timer fault outcome 2 out of [0, 2)"
			if !res.BugFound || res.Report.Kind != gostorm.SafetyBug ||
				res.Report.Machine != "Timer0(1)" || res.Report.Message != want {
				t.Fatalf("%s (pooled=%v): got %+v, want a safety violation in Timer0(1): %s", c.name, pooled, res.Report, want)
			}
		}
	}
}

// TestConfigErrors: the public entry points report configuration
// mistakes as typed *ConfigError values naming the option at fault.
func TestConfigErrors(t *testing.T) {
	build := func() gostorm.Test {
		return replsys.Scenario(replsys.ScenarioConfig{})
	}
	cases := []struct {
		name  string
		opts  []gostorm.Option
		field string
	}{
		{"zero iterations", []gostorm.Option{gostorm.WithIterations(0)}, "WithIterations"},
		{"negative max steps", []gostorm.Option{gostorm.WithMaxSteps(-1)}, "WithMaxSteps"},
		{"zero workers", []gostorm.Option{gostorm.WithWorkers(0)}, "WithWorkers"},
		{"unknown scheduler", []gostorm.Option{gostorm.WithScheduler("quantum")}, "Options.Scheduler"},
		{"empty portfolio", []gostorm.Option{gostorm.WithPortfolio()}, "WithPortfolio"},
		{"unknown member", []gostorm.Option{gostorm.WithPortfolio("random", "quantum")}, "Options.Portfolio[1]"},
		{"negative fault budget", []gostorm.Option{gostorm.WithFaults(gostorm.Faults{MaxCrashes: -1})}, "WithFaults"},
		{"nil progress", []gostorm.Option{gostorm.WithProgress(nil)}, "WithProgress"},
		{"zero log cap", []gostorm.Option{gostorm.WithLogCap(0)}, "WithLogCap"},
		{"zero temperature", []gostorm.Option{gostorm.WithTemperature(0)}, "WithTemperature"},
		{"zero stop after", []gostorm.Option{gostorm.WithStopAfter(0)}, "WithStopAfter"},
		{"zero pct depth", []gostorm.Option{gostorm.WithPCTDepth(0)}, "WithPCTDepth"},
		{"empty scheduler name", []gostorm.Option{gostorm.WithScheduler("")}, "WithScheduler"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := gostorm.Explore(build(), c.opts...)
			ce, ok := err.(*gostorm.ConfigError)
			if !ok {
				t.Fatalf("Explore error = %v (%T), want *gostorm.ConfigError", err, err)
			}
			if ce.Field != c.field {
				t.Fatalf("ConfigError.Field = %q, want %q (reason: %s)", ce.Field, c.field, ce.Reason)
			}
			// Resolve reports the identical error without running anything.
			if _, rerr := gostorm.Resolve(build(), c.opts...); rerr == nil {
				t.Fatal("Resolve accepted the invalid options")
			}
		})
	}
}

// TestResolveReportsEffectiveConfig: Resolve applies the engine defaults
// and the fault-budget resolution without executing anything.
func TestResolveReportsEffectiveConfig(t *testing.T) {
	test := gostorm.Test{Name: "cfg", Entry: func(ctx *gostorm.Context) {},
		Faults: gostorm.Faults{MaxCrashes: 2}}

	cfg, err := gostorm.Resolve(test)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != "random" || cfg.Iterations != 10000 || cfg.MaxSteps != 10000 ||
		cfg.PCTDepth != 2 || cfg.Workers < 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Faults != (gostorm.Faults{MaxCrashes: 2}) {
		t.Fatalf("declared budget not reported: %+v", cfg.Faults)
	}

	cfg, err = gostorm.Resolve(test, gostorm.WithNoFaults(), gostorm.WithScheduler("dfs"),
		gostorm.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != (gostorm.Faults{}) {
		t.Fatalf("WithNoFaults not resolved: %+v", cfg.Faults)
	}
	if cfg.Workers != 1 {
		t.Fatalf("sequential scheduler not clamped to one worker: %+v", cfg)
	}
	if cfg, err = gostorm.Resolve(test, gostorm.WithPortfolio("dfs", "random"), gostorm.WithWorkers(8)); err != nil || cfg.Workers != 8 {
		t.Fatalf("a plan with a non-sequential member keeps its pool: %+v, %v", cfg, err)
	}

	cfg, err = gostorm.Resolve(test, gostorm.WithPortfolio("random", "pct"),
		gostorm.WithFaults(gostorm.Faults{MaxDrops: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != "" || len(cfg.Portfolio) != 2 {
		t.Fatalf("portfolio not reported: %+v", cfg)
	}
	if cfg.Faults != (gostorm.Faults{MaxDrops: 3}) {
		t.Fatalf("WithFaults override not resolved: %+v", cfg.Faults)
	}

	// The strategy axis is last-wins, like every other option: layering
	// WithScheduler over a scenario's WithPortfolio (or vice versa)
	// overrides instead of erroring.
	cfg, err = gostorm.Resolve(test, gostorm.WithPortfolio("random", "pct"), gostorm.WithScheduler("rr"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != "rr" || cfg.Portfolio != nil {
		t.Fatalf("WithScheduler did not override WithPortfolio: %+v", cfg)
	}
	cfg, err = gostorm.Resolve(test, gostorm.WithScheduler("rr"), gostorm.WithPortfolio("random", "pct"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Portfolio) != 2 || cfg.Scheduler != "" {
		t.Fatalf("WithPortfolio did not override WithScheduler: %+v", cfg)
	}
}
