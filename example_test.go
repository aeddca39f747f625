package gostorm_test

import (
	"fmt"
	"math/rand"

	"github.com/gostorm/gostorm"
)

// --- ExampleExplore: the quickstart — model a system, find a real
// concurrency bug, replay it exactly. ---

// regRead asks the register for its current value.
type regRead struct{ From gostorm.MachineID }

func (regRead) Name() string { return "read" }

// regReadReply carries the value back.
type regReadReply struct{ Value int }

func (regReadReply) Name() string { return "read-reply" }

// regWrite stores a new value.
type regWrite struct{ Value int }

func (regWrite) Name() string { return "write" }

// regCheck asks the register to assert the final value.
type regCheck struct{ Want int }

func (regCheck) Name() string { return "check" }

// register is a shared integer register.
type register struct{ value int }

func (r *register) Init(*gostorm.Context) {}

func (r *register) Handle(ctx *gostorm.Context, ev gostorm.Event) {
	switch e := ev.(type) {
	case regRead:
		ctx.Send(e.From, regReadReply{Value: r.value})
	case regWrite:
		r.value = e.Value
	case regCheck:
		ctx.Assert(r.value == e.Want, "lost update: final value %d, want %d", r.value, e.Want)
	}
}

// incrementer performs a read-modify-write against the register — with
// no synchronization, so two incrementers can interleave and lose an
// update.
type incrementer struct {
	store, done gostorm.MachineID
}

func (w *incrementer) Init(ctx *gostorm.Context) {
	ctx.Send(w.store, regRead{From: ctx.ID()})
	v := ctx.Receive("read-reply").(regReadReply).Value
	ctx.Send(w.store, regWrite{Value: v + 1})
	ctx.Send(w.done, gostorm.Signal("done"))
}

func (w *incrementer) Handle(*gostorm.Context, gostorm.Event) {}

// lostUpdateTest builds the harness: one register, two unsynchronized
// incrementers, and a final assertion that both updates survived.
func lostUpdateTest() gostorm.Test {
	return gostorm.Test{
		Name: "lost-update",
		Entry: func(ctx *gostorm.Context) {
			store := ctx.CreateMachine(&register{}, "register")
			for i := 0; i < 2; i++ {
				ctx.CreateMachine(&incrementer{store: store, done: ctx.ID()}, fmt.Sprintf("inc%d", i))
			}
			ctx.Receive("done")
			ctx.Receive("done")
			ctx.Send(store, regCheck{Want: 2})
		},
	}
}

// ExampleExplore models a textbook lost update — two clients doing
// read-modify-write against a shared register — and lets systematic
// exploration find the interleaving where one update vanishes. The
// recorded trace then replays to the identical violation: the paper's
// debugging loop, end to end, through the public API.
func ExampleExplore() {
	test := lostUpdateTest()
	res, err := gostorm.Explore(test,
		gostorm.WithScheduler("random"),
		gostorm.WithSeed(1),
		gostorm.WithIterations(1000),
		gostorm.WithMaxSteps(500),
	)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	fmt.Println("bug found:", res.BugFound)
	fmt.Printf("%v violation: %s\n", res.Report.Kind, res.Report.Message)

	rep, err := gostorm.Replay(test, res.Report.Trace, gostorm.WithMaxSteps(500))
	if err != nil {
		fmt.Println("replay error:", err)
		return
	}
	fmt.Println("replay reproduces it:", rep != nil && rep.Message == res.Report.Message)
	// Output:
	// bug found: true
	// safety violation: lost update: final value 1, want 2
	// replay reproduces it: true
}

// --- ExampleRegisterScheduler: a user-defined exploration strategy as a
// first-class registry member. ---

// newestFirst is a user-defined scheduler: it always runs the most
// recently created enabled machine, with data choices and fault outcomes
// drawn from the seed's generator. Determinism per (seed, call sequence) is the one
// hard requirement — replay depends on it.
type newestFirst struct{ rng *rand.Rand }

func (s *newestFirst) Name() string { return "newest-first" }

func (s *newestFirst) Prepare(seed int64, _ int) { s.rng.Seed(seed) }

func (s *newestFirst) NextMachine(enabled []gostorm.MachineID) gostorm.MachineID {
	return enabled[len(enabled)-1]
}

func (s *newestFirst) NextBool() bool                      { return s.rng.Intn(2) == 0 }
func (s *newestFirst) NextInt(n int) int                   { return s.rng.Intn(n) }
func (s *newestFirst) NextFault(c gostorm.FaultChoice) int { return s.rng.Intn(c.N) }

// ExampleRegisterScheduler registers a custom strategy, holds it to the
// engine's conformance contract, and races it in a portfolio alongside
// the built-ins — no engine changes required.
func ExampleRegisterScheduler() {
	err := gostorm.RegisterScheduler("newest-first", func() gostorm.Scheduler {
		return &newestFirst{rng: gostorm.NewRand()}
	})
	fmt.Println("registered:", err == nil)
	fmt.Println("conformant:", gostorm.VerifyScheduler("newest-first") == nil)

	res, err := gostorm.Explore(lostUpdateTest(),
		gostorm.WithPortfolio("newest-first", "random", "pct"),
		gostorm.WithSeed(1),
		gostorm.WithIterations(1000),
		gostorm.WithMaxSteps(500),
	)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	fmt.Println("bug found:", res.BugFound)
	fmt.Println("portfolio members:", len(res.Portfolio))
	// Output:
	// registered: true
	// conformant: true
	// bug found: true
	// portfolio members: 3
}

// --- ExampleWithFaults: a scheduler-controlled lossy network under an
// explicit fault budget. ---

// pingCount tallies pings and checks the tally on demand.
type pingCount struct{ got int }

func (p *pingCount) Init(*gostorm.Context) {}

func (p *pingCount) Handle(ctx *gostorm.Context, ev gostorm.Event) {
	switch e := ev.(type) {
	case regCheck:
		ctx.Assert(p.got == e.Want, "only %d of %d pings arrived", p.got, e.Want)
	default:
		_ = e
		p.got++
	}
}

// ExampleWithFaults sends pings over an unreliable link under a
// one-drop fault budget: the scheduler owns the drop decision, finds the
// schedule where a message vanishes, and records it as a typed decision
// in the replayable trace.
func ExampleWithFaults() {
	test := gostorm.Test{
		Name: "lossy-pings",
		Entry: func(ctx *gostorm.Context) {
			sink := ctx.CreateMachine(&pingCount{}, "sink")
			for i := 0; i < 3; i++ {
				ctx.SendUnreliable(sink, gostorm.Signal("ping"))
			}
			ctx.Send(sink, regCheck{Want: 3})
		},
	}
	cfg, err := gostorm.Resolve(test, gostorm.WithFaults(gostorm.Faults{MaxDrops: 1}))
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	fmt.Println("effective fault budget:", cfg.Faults)

	res, err := gostorm.Explore(test,
		gostorm.WithFaults(gostorm.Faults{MaxDrops: 1}),
		gostorm.WithSeed(1),
		gostorm.WithIterations(200),
		gostorm.WithMaxSteps(200),
	)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	fmt.Printf("%v violation: %s\n", res.Report.Kind, res.Report.Message)
	drops := 0
	for _, d := range res.Report.Trace.Decisions {
		if d.Kind == gostorm.DecisionDeliver {
			drops++
		}
	}
	fmt.Println("delivery decisions recorded in the trace:", drops > 0)
	// Output:
	// effective fault budget: drops=1
	// safety violation: only 2 of 3 pings arrived
	// delivery decisions recorded in the trace: true
}

// ExampleScenarioByName runs one of the bundled case-study scenarios —
// the paper's §2 replication example with its seeded safety bug — by
// name, layering overrides over the scenario's recommended options.
func ExampleScenarioByName() {
	sc, err := gostorm.ScenarioByName("replsys-safety")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sc.About)
	res, err := gostorm.Explore(sc.Test(), append(sc.Options(),
		gostorm.WithSeed(1),
		gostorm.WithIterations(5000),
		gostorm.WithNoReplayLog(),
	)...)
	if err != nil {
		fmt.Println("config error:", err)
		return
	}
	fmt.Println("bug found:", res.BugFound)
	fmt.Println("kind:", res.Report.Kind)
	// Output:
	// §2 example, safety monitor only (duplicate replica counting bug)
	// bug found: true
	// kind: safety
}
