package gostorm_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/replsys"
)

// lifoScheduler is a user-defined exploration strategy living entirely
// outside internal/: at every scheduling point it picks the most recently
// created enabled machine (highest MachineID), with data choices and fault
// outcomes drawn from the seed's generator. It exists to prove the extension surface —
// registration, conformance, portfolio membership — works without
// touching core.
type lifoScheduler struct {
	rng *rand.Rand
}

func (s *lifoScheduler) Name() string { return "lifo" }

func (s *lifoScheduler) Prepare(seed int64, _ int) { s.rng.Seed(seed) }

func (s *lifoScheduler) NextMachine(enabled []gostorm.MachineID) gostorm.MachineID {
	return enabled[len(enabled)-1]
}

func (s *lifoScheduler) NextBool() bool { return s.rng.Intn(2) == 0 }

func (s *lifoScheduler) NextInt(n int) int { return s.rng.Intn(n) }

func (s *lifoScheduler) NextFault(c gostorm.FaultChoice) int { return s.rng.Intn(c.N) }

// registerLIFO registers the scheduler once for this test binary.
var registerLIFO = func() error {
	return gostorm.RegisterScheduler("lifo", func() gostorm.Scheduler {
		return &lifoScheduler{rng: gostorm.NewRand()}
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

// hintedScheduler is a user-defined adaptive scheduler: it picks uniformly,
// except at one step per execution, drawn within its length hint (the step
// bound without one), where it picks the newest enabled machine. Its spec
// declares nothing: implementing LengthHinted is what gets it calibrated.
// Every Prepare records the hint it sees in log.
type hintedScheduler struct {
	rng            *rand.Rand
	hint, at, step int
	log            *hintLog
}

type hintLog struct {
	mu    sync.Mutex
	hints []int
}

func (s *hintedScheduler) Name() string { return "hinted" }

func (s *hintedScheduler) SetLengthHint(steps int) { s.hint = steps }

func (s *hintedScheduler) Prepare(seed int64, maxSteps int) {
	s.rng.Seed(seed)
	bound := s.hint
	if bound == 0 {
		bound = maxSteps
	}
	s.at, s.step = 1+s.rng.Intn(bound), 0
	s.log.mu.Lock()
	s.log.hints = append(s.log.hints, s.hint)
	s.log.mu.Unlock()
}

func (s *hintedScheduler) NextMachine(enabled []gostorm.MachineID) gostorm.MachineID {
	if s.step++; s.step == s.at {
		return enabled[len(enabled)-1]
	}
	return enabled[s.rng.Intn(len(enabled))]
}

func (s *hintedScheduler) NextBool() bool                      { return s.rng.Intn(2) == 0 }
func (s *hintedScheduler) NextInt(n int) int                   { return s.rng.Intn(n) }
func (s *hintedScheduler) NextFault(c gostorm.FaultChoice) int { return s.rng.Intn(c.N) }

var hints = &hintLog{}

var registerHinted = gostorm.RegisterScheduler("hinted", func() gostorm.Scheduler {
	return &hintedScheduler{rng: gostorm.NewRand(), log: hints}
})

// TestLengthHintedSchedulerIsCalibrated: a scheduler registered with only a
// constructor, whose instances implement LengthHinted, is calibrated like
// pct — one unhinted execution measures the program, every other execution
// runs under that one pinned estimate — so its result is the same at every
// worker count.
func TestLengthHintedSchedulerIsCalibrated(t *testing.T) {
	if registerHinted != nil {
		t.Fatalf("RegisterScheduler: %v", registerHinted)
	}
	if err := gostorm.VerifyScheduler("hinted"); err != nil {
		t.Fatalf("conformance: %v", err)
	}
	const maxSteps = 2000
	var prev gostorm.Result
	for i, workers := range []int{1, 4} {
		hints.hints = nil
		res, err := gostorm.Explore(replsys.Scenario(replsys.ScenarioConfig{Monitors: replsys.WithSafety}),
			gostorm.WithScheduler("hinted"),
			gostorm.WithIterations(300),
			gostorm.WithMaxSteps(maxSteps),
			gostorm.WithSeed(1),
			gostorm.WithWorkers(workers),
			gostorm.WithNoReplayLog(),
		)
		if err != nil {
			t.Fatal(err)
		}
		if len(hints.hints) < 2 {
			t.Fatalf("%d workers: %d executions prepared, want at least 2", workers, len(hints.hints))
		}
		unhinted, pinned := 0, 0
		for _, h := range hints.hints {
			switch {
			case h == 0:
				unhinted++
			case pinned == 0:
				pinned = h
			case h != pinned:
				t.Fatalf("%d workers: instances prepared under hints %d and %d, want one pinned estimate", workers, pinned, h)
			}
		}
		if unhinted != 1 || pinned <= 0 || pinned > maxSteps {
			t.Fatalf("%d workers: %d unhinted executions and estimate %d, want exactly one calibration execution and an estimate in (0, %d]",
				workers, unhinted, pinned, maxSteps)
		}
		if i > 0 && (res.BugFound != prev.BugFound || res.Executions != prev.Executions || res.TotalSteps != prev.TotalSteps) {
			t.Fatalf("hinted scheduler is worker-count-dependent:\n1 worker:  %+v\n%d workers: %+v", prev, workers, res)
		}
		prev = res
	}
}

// liar is a misbehaving user scheduler: it always runs the oldest enabled
// machine and answers one kind of choice out of range — a fault choice of
// kind fault with c.N+over, NextInt with n+5, or its at-th NextMachine call
// of an execution with machine.
type liar struct {
	name    string
	fault   gostorm.FaultKind
	over    int // 0: fault choices are answered honestly (benign)
	ints    bool
	at      int // -1: NextMachine is answered honestly
	machine gostorm.MachineID

	calls int
}

func (s *liar) Name() string   { return s.name }
func (s *liar) NextBool() bool { return false }

func (s *liar) Prepare(int64, int) { s.calls = 0 }

func (s *liar) NextInt(n int) int {
	if s.ints {
		return n + 5
	}
	return 0
}

func (s *liar) NextMachine(enabled []gostorm.MachineID) gostorm.MachineID {
	s.calls++
	if s.calls-1 == s.at {
		return s.machine
	}
	return enabled[0]
}

func (s *liar) NextFault(c gostorm.FaultChoice) int {
	if s.over > 0 && c.Kind == s.fault {
		return c.N - 1 + s.over
	}
	return 0
}

// liars holds one liar per kind of choice (the scheduling choice three
// times: it is asked on the hub, on a handler's stack and on a stack between
// handlers). Each is registered once for this test binary.
var liars = []liar{
	{name: "timer-liar", fault: gostorm.FaultTimer, over: 1, at: -1},
	{name: "crash-liar", fault: gostorm.FaultCrash, over: 1, at: -1},
	{name: "deliver-liar", fault: gostorm.FaultDeliver, over: 2, at: -1},
	{name: "persist-liar", fault: gostorm.FaultPersist, over: 1, at: -1},
	{name: "int-liar", ints: true, at: -1},
	{name: "machine-liar-hub", at: 0, machine: 99},
	{name: "machine-liar-handler", at: 2, machine: 0},
	{name: "machine-liar-host", at: 2, machine: -7},
}

var registerLiars = func() error {
	for _, l := range liars {
		err := gostorm.RegisterScheduler(l.name, func() gostorm.Scheduler { s := l; return &s })
		if err != nil {
			return err
		}
	}
	return nil
}()

// TestOutOfRangeTimerAnswerIsAttributedToTheTimer: a scheduler's
// out-of-range answer — to any kind of choice, on whichever stack the
// choice point runs — is one safety violation naming the scheduler and
// attributed to the machine that presented the choice, never a panic of the
// machine that lent its stack (with a goroutine dump for a message), a false
// bug in the system under test, or a panic out of the engine. A timer's step
// runs on whatever stack reached the scheduling point that picked it: the
// entry machine's, blocked in Receive, or — the entry machine has halted —
// the hub's. The trace ends with the last honest decision.
func TestOutOfRangeTimerAnswerIsAttributedToTheTimer(t *testing.T) {
	if registerLiars != nil {
		t.Fatalf("RegisterScheduler: %v", registerLiars)
	}
	idle := func() gostorm.Machine { return &gostorm.FuncMachine{} }
	for _, c := range []struct {
		name, sched string
		faults      gostorm.Faults
		entry       func(ctx *gostorm.Context)
		machine     string // the machine the violation is attributed to
		want        string
		decisions   int // recorded before the offending answer
	}{
		{"timer, on a host machine's stack", "timer-liar", gostorm.Faults{}, func(ctx *gostorm.Context) {
			ctx.StartTimer("Timer0", ctx.ID(), gostorm.Signal("tick"))
			ctx.Receive("tick")
		}, "Timer0(1)", "core: timer-liar scheduler: timer fault outcome 2 out of [0, 2)", 5},
		{"timer, on the hub", "timer-liar", gostorm.Faults{}, func(ctx *gostorm.Context) {
			ctx.StartTimer("Timer0", ctx.ID(), gostorm.Signal("tick"))
			ctx.Halt()
		}, "Timer0(1)", "core: timer-liar scheduler: timer fault outcome 2 out of [0, 2)", 5},
		{"crash", "crash-liar", gostorm.Faults{MaxCrashes: 1}, func(ctx *gostorm.Context) {
			ctx.CrashPoint(ctx.CreateMachine(idle(), "peer"))
		}, "harness(0)", "core: crash-liar scheduler: crash fault outcome 2 out of [0, 2)", 2},
		{"delivery", "deliver-liar", gostorm.Faults{MaxDrops: 1}, func(ctx *gostorm.Context) {
			ctx.SendUnreliable(ctx.CreateMachine(idle(), "peer"), gostorm.Signal("ping"))
		}, "harness(0)", "core: deliver-liar scheduler: delivery fault outcome 3 out of [0, 2)", 2},
		{"persist, in the reaper", "persist-liar", gostorm.Faults{MaxTornCrashes: 1}, func(ctx *gostorm.Context) {
			self := ctx.ID()
			peer := ctx.CreateMachine(&gostorm.FuncMachine{OnInit: func(ctx *gostorm.Context) {
				ctx.Persist("k", []byte("v"))
				ctx.Send(self, gostorm.Signal("staged"))
			}}, "peer")
			ctx.Receive("staged")
			ctx.Crash(peer)
		}, "peer(1)", "core: persist-liar scheduler: persist fault outcome 2 out of [0, 2)", 5},
		{"int", "int-liar", gostorm.Faults{}, func(ctx *gostorm.Context) {
			ctx.RandomInt(3)
		}, "harness(0)", "core: int-liar scheduler: int outcome 8 out of [0, 3)", 1},
		{"machine out of range, on the hub", "machine-liar-hub", gostorm.Faults{}, func(ctx *gostorm.Context) {
		}, "", "core: machine-liar-hub scheduler: machine outcome 99 out of [0, 1)", 0},
		{"machine not enabled, on a handler's stack", "machine-liar-handler", gostorm.Faults{}, func(ctx *gostorm.Context) {
			ctx.CreateMachine(idle(), "peer")
			ctx.Receive("never")
		}, "", "core: machine-liar-handler scheduler: machine (not enabled) outcome 0 out of [0, 2)", 2},
		{"machine out of range, between handlers", "machine-liar-host", gostorm.Faults{}, func(ctx *gostorm.Context) {
			ctx.CreateMachine(idle(), "peer")
		}, "", "core: machine-liar-host scheduler: machine outcome -7 out of [0, 2)", 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			test := gostorm.Test{Name: "liar", Entry: c.entry}
			for _, pooled := range []bool{true, false} {
				opts := []gostorm.Option{
					gostorm.WithScheduler(c.sched), gostorm.WithIterations(3), gostorm.WithMaxSteps(100),
					gostorm.WithWorkers(1), gostorm.WithNoReplayLog(), gostorm.WithFaults(c.faults),
				}
				if !pooled {
					opts = append(opts, gostorm.WithNoReuse())
				}
				res, err := gostorm.Explore(test, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !res.BugFound || res.Report.Kind != gostorm.SafetyBug ||
					res.Report.Machine != c.machine || res.Report.Message != c.want {
					t.Fatalf("pooled=%v: got %+v, want a safety violation in %q: %s", pooled, res.Report, c.machine, c.want)
				}
				if got := len(res.Report.Trace.Decisions); got != c.decisions {
					t.Fatalf("pooled=%v: %d decisions recorded, want %d: %v", pooled, got, c.decisions, res.Report.Trace.Decisions)
				}
			}
		})
	}
}

// TestNilSchedulerIsRejectedAtRegistration: a constructor that builds a nil
// scheduler is refused by RegisterScheduler, with an error naming it, so
// Explore never gets to hand the nil to a worker; the name stays unknown.
func TestNilSchedulerIsRejectedAtRegistration(t *testing.T) {
	err := gostorm.RegisterScheduler("nil-sched", func() gostorm.Scheduler { return nil })
	if err == nil || !strings.Contains(err.Error(), `"nil-sched"`) {
		t.Fatalf("RegisterScheduler(nil-sched) = %v, want an error naming the scheduler", err)
	}
	_, err = gostorm.Explore(replsys.Scenario(replsys.ScenarioConfig{}),
		gostorm.WithScheduler("nil-sched"), gostorm.WithWorkers(1), gostorm.WithIterations(1))
	if ce, ok := err.(*gostorm.ConfigError); !ok || ce.Field != "Options.Scheduler" {
		t.Fatalf("Explore under the refused scheduler = %v, want an unknown-scheduler *ConfigError", err)
	}
}

// TestConfigErrors: the public entry points report configuration
// mistakes as typed *ConfigError values naming the Options field at fault,
// whether an option or Resolve catches them.
func TestConfigErrors(t *testing.T) {
	build := func() gostorm.Test {
		return replsys.Scenario(replsys.ScenarioConfig{})
	}
	cases := []struct {
		name  string
		opts  []gostorm.Option
		field string
	}{
		{"zero iterations", []gostorm.Option{gostorm.WithIterations(0)}, "Options.Iterations"},
		{"negative max steps", []gostorm.Option{gostorm.WithMaxSteps(-1)}, "Options.MaxSteps"},
		{"zero max steps", []gostorm.Option{gostorm.WithMaxSteps(0)}, "Options.MaxSteps"},
		{"zero workers", []gostorm.Option{gostorm.WithWorkers(0)}, "Options.Workers"},
		{"unknown scheduler", []gostorm.Option{gostorm.WithScheduler("quantum")}, "Options.Scheduler"},
		{"empty portfolio", []gostorm.Option{gostorm.WithPortfolio()}, "Options.Portfolio"},
		{"unknown member", []gostorm.Option{gostorm.WithPortfolio("random", "quantum")}, "Options.Portfolio[1]"},
		{"empty member", []gostorm.Option{gostorm.WithPortfolio("random", "")}, "Options.Portfolio[1]"},
		{"negative fault budget", []gostorm.Option{gostorm.WithFaults(gostorm.Faults{MaxCrashes: -1})}, "Options.Faults.MaxCrashes"},
		{"empty scheduler name", []gostorm.Option{gostorm.WithScheduler("")}, "Options.Scheduler"},
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
			// Every other entry point reports the identical error without
			// running anything.
			_, rerr := gostorm.Resolve(build(), c.opts...)
			_, perr := gostorm.PlanSize(c.opts...)
			_, serr := gostorm.ExploreShard(build(), gostorm.Shard{From: 0, To: 1}, c.opts...)
			_, lerr := gostorm.Replay(build(), &gostorm.Trace{}, c.opts...)
			for name, other := range map[string]error{"Resolve": rerr, "PlanSize": perr, "ExploreShard": serr, "Replay": lerr} {
				if !reflect.DeepEqual(other, err) {
					t.Errorf("%s error = %v, want Explore's %v", name, other, err)
				}
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
		cfg.Workers < 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if *cfg.Faults != (gostorm.Faults{MaxCrashes: 2}) {
		t.Fatalf("declared budget not reported: %+v", *cfg.Faults)
	}

	cfg, err = gostorm.Resolve(test, gostorm.WithNoFaults(), gostorm.WithScheduler("rr"),
		gostorm.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if *cfg.Faults != (gostorm.Faults{}) {
		t.Fatalf("WithNoFaults not resolved: %+v", *cfg.Faults)
	}
	if cfg.Scheduler != "rr" || cfg.Workers != 8 {
		t.Fatalf("scheduler or workers not reported as set: %+v", cfg)
	}

	cfg, err = gostorm.Resolve(test, gostorm.WithPortfolio("random", "pct"),
		gostorm.WithFaults(gostorm.Faults{MaxDrops: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheduler != "" || len(cfg.Portfolio) != 2 {
		t.Fatalf("portfolio not reported: %+v", cfg)
	}
	if *cfg.Faults != (gostorm.Faults{MaxDrops: 3}) {
		t.Fatalf("WithFaults override not resolved: %+v", *cfg.Faults)
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
