package core

import (
	"runtime"
	"strings"
	"testing"
)

// --- fault-plane workloads ---

// timerBugTest seeds a bug that manifests exactly when the timer fires:
// finding it proves the scheduler controls timer firing, and its trace
// must carry DecisionTimer entries.
func timerBugTest() Test {
	return Test{
		Name: "fault-timer",
		Entry: func(ctx *Context) {
			tid := ctx.StartTimer("T", ctx.ID(), Signal("tick"))
			ctx.Receive("tick")
			ctx.StopTimer(tid)
			ctx.Assert(false, "tick delivered")
		},
	}
}

// counterSink counts every "ping" it receives and checks the count when
// "done" arrives; delivery faults on the pings break the expectation.
type counterSink struct {
	want int
	got  int
}

func (s *counterSink) Init(*Context) {}
func (s *counterSink) Handle(ctx *Context, ev Event) {
	switch ev.Name() {
	case "ping":
		s.got++
	case "done":
		ctx.Assert(s.got == s.want, "received %d of %d pings", s.got, s.want)
	}
}

// deliveryBugTest sends pings over an unreliable link; with any drop or
// duplicate budget, schedules exist where the count check fails.
func deliveryBugTest(pings int) Test {
	return Test{
		Name: "fault-delivery",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&counterSink{want: pings}, "sink")
			for i := 0; i < pings; i++ {
				ctx.SendUnreliable(sink, Signal("ping"))
			}
			ctx.Send(sink, Signal("done"))
		},
	}
}

// crashBugTest offers the scheduler a crash of the sink before pinging
// it; a taken crash silences the sink, and the entry's follow-up receive
// then deadlocks — so finding the deadlock proves the crash happened.
func crashBugTest() Test {
	return Test{
		Name: "fault-crash",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&echoMachine{}, "sink")
			ctx.CrashPoint(sink)
			ctx.Send(sink, pingEvent{From: ctx.ID()})
			ctx.Receive("echo")
		},
	}
}

// echoMachine answers every ping with an echo to the sender.
type echoMachine struct{}

func (echoMachine) Init(*Context) {}
func (echoMachine) Handle(ctx *Context, ev Event) {
	if p, ok := ev.(pingEvent); ok {
		ctx.Send(p.From, Signal("echo"))
	}
}

type pingEvent struct{ From MachineID }

func (pingEvent) Name() string { return "ping" }

func hasDecisionKind(tr *Trace, kind DecisionKind) bool {
	for _, d := range tr.Decisions {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// assertFaultTraceReplays encodes, decodes and replays a fault trace and
// checks the replay reproduces the identical violation (a panic's message
// carries its stack, so that one is compared by its first line).
func assertFaultTraceReplays(t *testing.T, test Test, res Result, o Options) {
	t.Helper()
	data, err := res.Report.Trace.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	tr, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if tr.Version != TraceVersion {
		t.Fatalf("trace version %d, want %d", tr.Version, TraceVersion)
	}
	// Replay reads only o's bounds: the strategy is the trace's, which may
	// be the dfs oracle's, a name no registry knows.
	o.Scheduler, o.Portfolio = "", nil
	rep, err := Replay(test, tr, o)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep == nil {
		t.Fatal("replay reproduced no violation")
	}
	got, want := rep.Message, res.Report.Message
	if strings.HasPrefix(want, "panic in ") {
		got, want = firstLine(got), firstLine(want)
	}
	if got != want || rep.Kind != res.Report.Kind {
		t.Fatalf("replay reproduced (%v, %q), recorded (%v, %q)",
			rep.Kind, rep.Message, res.Report.Kind, res.Report.Message)
	}
}

// --- tests ---

func TestTimerFiringIsSchedulerControlled(t *testing.T) {
	o := Options{Scheduler: "random", Iterations: 20, MaxSteps: 200, Seed: 1, NoReplayLog: true}
	res := MustExplore(timerBugTest(), o)
	if !res.BugFound {
		t.Fatal("timer never fired in 20 executions")
	}
	if !hasDecisionKind(res.Report.Trace, DecisionTimer) {
		t.Fatal("buggy trace has no DecisionTimer entries")
	}
	assertFaultTraceReplays(t, timerBugTest(), res, o)
}

func TestStopTimerSilencesTimer(t *testing.T) {
	test := Test{
		Name: "stop-timer",
		Entry: func(ctx *Context) {
			tid := ctx.StartTimer("T", ctx.ID(), Signal("tick"))
			ctx.Receive("tick")
			ctx.StopTimer(tid)
			// With the timer halted the system quiesces; a still-live
			// timer would spin to the step bound instead.
			ctx.Assert(ctx.Step() < 150, "timer kept the execution alive")
		},
	}
	res := MustExplore(test, Options{Scheduler: "random", Iterations: 30, MaxSteps: 400, Seed: 2})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
}

func TestDeliveryFaultsDropAndDuplicate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults Faults
	}{
		{"drop", Faults{MaxDrops: 1}},
		{"duplicate", Faults{MaxDuplicates: 1}},
		{"both", Faults{MaxDrops: 1, MaxDuplicates: 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Scheduler: "random", Iterations: 50, MaxSteps: 300, Seed: 1,
				Faults: &tc.faults, NoReplayLog: true}
			res := MustExplore(deliveryBugTest(3), o)
			if !res.BugFound {
				t.Fatal("no delivery fault was injected in 50 executions")
			}
			if !hasDecisionKind(res.Report.Trace, DecisionDeliver) {
				t.Fatal("buggy trace has no DecisionDeliver entries")
			}
			if !strings.Contains(res.Report.Message, "pings") {
				t.Fatalf("unexpected violation: %s", res.Report.Message)
			}
			assertFaultTraceReplays(t, deliveryBugTest(3), res, o)
		})
	}
}

func TestDeliveryFaultsDisabledByZeroBudget(t *testing.T) {
	res := MustExplore(deliveryBugTest(3), Options{Scheduler: "random", Iterations: 100, MaxSteps: 300, Seed: 1})
	if res.BugFound {
		t.Fatalf("delivery fault injected with a zero budget: %v", res.Report.Error())
	}
	if res.Choices != 0 && res.Report != nil {
		t.Fatal("unexpected report")
	}
}

func TestCrashPointCrashesWithinBudget(t *testing.T) {
	o := Options{Scheduler: "random", Iterations: 20, MaxSteps: 300, Seed: 1,
		Faults: &Faults{MaxCrashes: 1}, NoReplayLog: true}
	res := MustExplore(crashBugTest(), o)
	if !res.BugFound {
		t.Fatal("crash never taken in 20 executions")
	}
	if res.Report.Kind != DeadlockBug {
		t.Fatalf("kind = %v, want deadlock (sink crashed before echo): %s", res.Report.Kind, res.Report.Message)
	}
	if !hasDecisionKind(res.Report.Trace, DecisionCrash) {
		t.Fatal("buggy trace has no DecisionCrash entries")
	}
	assertFaultTraceReplays(t, crashBugTest(), res, o)
}

func TestCrashPointRespectsZeroBudget(t *testing.T) {
	res := MustExplore(crashBugTest(), Options{Scheduler: "random", Iterations: 50, MaxSteps: 300, Seed: 1})
	if res.BugFound {
		t.Fatalf("crash taken with a zero budget: %v", res.Report.Error())
	}
}

// TestCrashDropsQueueAndSilencesSends: after Crash the victim never runs
// again — queued events are discarded and later sends dropped — and
// Restart brings the same MachineID back with fresh behavior.
func TestCrashAndRestartSemantics(t *testing.T) {
	test := Test{
		Name: "crash-restart",
		Entry: func(ctx *Context) {
			v := ctx.CreateMachine(&echoMachine{}, "victim")
			ctx.Send(v, pingEvent{From: ctx.ID()})
			ctx.Receive("echo") // the original incarnation answered
			ctx.Crash(v)
			// Dropped: the victim is halted from the crasher's next
			// action onward.
			ctx.Send(v, pingEvent{From: ctx.ID()})
			ctx.Restart(v, &counterSink{want: 2})
			// The restarted incarnation starts from scratch: its count
			// must be exactly the two pings below, nothing inherited and
			// nothing replayed from the discarded queue.
			ctx.Send(v, Signal("ping"))
			ctx.Send(v, Signal("ping"))
			ctx.Send(v, Signal("done"))
		},
	}
	// Every schedule must be clean: the assertion inside counterSink
	// fails if crash/restart leaks state or delivers discarded events.
	res := MustExplore(test, Options{Scheduler: "random", Iterations: 200, MaxSteps: 400, Seed: 3})
	if res.BugFound {
		t.Fatalf("crash/restart semantics violated: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
	// And the dfs scheduler agrees on every interleaving.
	res, _ = exploreDFS(test, Options{Iterations: 5000, MaxSteps: 400})
	if res.BugFound {
		t.Fatalf("dfs found a crash/restart violation: %v", res.Report.Error())
	}
}

// TestFaultInjectorLifecycle: the shared injector machine crashes within
// its budget, reports through OnCrash, and halts itself when the budget
// is spent — with a zero budget it halts immediately, leaving schedules
// untouched.
func TestFaultInjectorLifecycle(t *testing.T) {
	build := func() Test {
		return Test{
			Name: "injector",
			Entry: func(ctx *Context) {
				a := ctx.CreateMachine(&echoMachine{}, "a")
				b := ctx.CreateMachine(&echoMachine{}, "b")
				ctx.CreateMachine(&FaultInjector{
					Candidates: func() []MachineID { return []MachineID{a, b} },
					OnCrash: func(ctx *Context, victim MachineID) {
						ctx.Assert(false, "injector crashed machine %d", victim)
					},
				}, "Injector")
			},
		}
	}
	o := Options{Scheduler: "random", Iterations: 20, MaxSteps: 300, Seed: 1,
		Faults: &Faults{MaxCrashes: 1}, NoReplayLog: true}
	res := MustExplore(build(), o)
	if !res.BugFound {
		t.Fatal("injector never crashed anything in 20 executions")
	}
	if !strings.Contains(res.Report.Message, "injector crashed machine") {
		t.Fatalf("unexpected violation: %s", res.Report.Message)
	}
	assertFaultTraceReplays(t, build(), res, o)

	// Zero budget: the injector halts immediately and the run is clean.
	res = MustExplore(build(), Options{Scheduler: "random", Iterations: 20, MaxSteps: 300, Seed: 1})
	if res.BugFound {
		t.Fatalf("injector acted on a zero budget: %v", res.Report.Error())
	}

	// Every offer declined, so the budget is never spent: Offers 2 halts
	// the injector after its second offer and the execution quiesces
	// clean; Offers 0 keeps offering until the step bound ends it.
	const maxSteps = 300
	declined := func(offers int) (offered, steps int) {
		test := Test{Name: "bounded-injector", Entry: func(ctx *Context) {
			a := ctx.CreateMachine(&echoMachine{}, "a")
			ctx.CreateMachine(&FaultInjector{
				Candidates: func() []MachineID { offered++; return []MachineID{a} },
				OnCrash: func(ctx *Context, victim MachineID) {
					ctx.Assert(false, "a declined offer crashed machine %d", victim)
				},
				Offers: offers,
			}, "Injector")
		}}
		o := resolved(Options{MaxSteps: maxSteps, Faults: &Faults{MaxCrashes: 1}})
		sched := declineFaults{newScheduler(t, "random", 0)}
		sched.Prepare(1, maxSteps)
		r := newRuntime(sched, o.runtimeConfig(test, false))
		if rep := r.execute(test); rep != nil {
			t.Fatalf("Offers %d: %v", offers, rep.Error())
		}
		return offered, r.steps
	}
	if offered, steps := declined(2); offered != 2 || steps >= maxSteps {
		t.Errorf("Offers 2: %d offers in %d steps, want 2 and a quiesced execution", offered, steps)
	}
	if offered, steps := declined(0); offered <= 2 || steps < maxSteps {
		t.Errorf("Offers 0: %d offers in %d steps, want offers until the step bound %d", offered, steps, maxSteps)
	}
}

// declineFaults is a scheduler that declines every fault choice.
type declineFaults struct{ Scheduler }

func (declineFaults) NextFault(FaultChoice) int { return 0 }

// TestFaultBudgetsAreCaps: with MaxDrops = 2 no schedule can drop three
// messages — the sink's lower bound on received pings cannot be violated.
func TestFaultBudgetsAreCaps(t *testing.T) {
	test := Test{
		Name: "budget-cap",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&minSink{min: 3}, "sink")
			for i := 0; i < 5; i++ {
				ctx.SendUnreliable(sink, Signal("ping"))
			}
			ctx.Send(sink, Signal("done"))
		},
	}
	res := MustExplore(test, Options{Scheduler: "random", Iterations: 300, MaxSteps: 300, Seed: 1,
		Faults: &Faults{MaxDrops: 2}})
	if res.BugFound {
		t.Fatalf("budget exceeded: %v", res.Report.Error())
	}
}

// minSink asserts at least min pings arrived by "done".
type minSink struct {
	min int
	got int
}

func (s *minSink) Init(*Context) {}
func (s *minSink) Handle(ctx *Context, ev Event) {
	switch ev.Name() {
	case "ping":
		s.got++
	case "done":
		ctx.Assert(s.got >= s.min, "only %d pings survived, budget allows losing %d", s.got, 5-s.min)
	}
}

// TestTestFaultsDefaultAndOverride: a Test's declared budget applies when
// Options.Faults is nil, a set Options.Faults replaces it wholesale, and the
// zero budget turns the plane off.
func TestTestFaultsDefaultAndOverride(t *testing.T) {
	test := crashBugTest()
	test.Faults = Faults{MaxCrashes: 1}
	res := MustExplore(test, Options{Scheduler: "random", Iterations: 20, MaxSteps: 300, Seed: 1, NoReplayLog: true})
	if !res.BugFound {
		t.Fatal("Test.Faults budget was not applied")
	}
	// Overriding with a different class replaces the whole budget —
	// crashes included.
	res = MustExplore(test, Options{Scheduler: "random", Iterations: 50, MaxSteps: 300, Seed: 1,
		Faults: &Faults{MaxDrops: 1}, NoReplayLog: true})
	if res.BugFound {
		t.Fatalf("Options.Faults did not override Test.Faults: %v", res.Report.Error())
	}
	// The zero budget turns the scenario's declared budget off.
	res = MustExplore(test, Options{Scheduler: "random", Iterations: 50, MaxSteps: 300, Seed: 1,
		Faults: &Faults{}, NoReplayLog: true})
	if res.BugFound {
		t.Fatalf("the zero budget did not turn the fault plane off: %v", res.Report.Error())
	}
}

// TestReplayCrashResolvesRecordedVictim: crash replay resolves the victim
// the trace names — a candidate-set shift under system nondeterminism is
// a loud divergence, not a silently different crash.
func TestReplayCrashResolvesRecordedVictim(t *testing.T) {
	s := newReplayScheduler(&Trace{Decisions: []Decision{
		{Kind: DecisionCrash, Machine: 5, Int: 1, N: 3},
		{Kind: DecisionCrash, Machine: NoMachine, Int: 0, N: 3},
		{Kind: DecisionCrash, Machine: 9, Int: 1, N: 3},
	}})
	s.Prepare(0, 100)
	// Recorded victim 5 sits at a different index now; replay must still
	// crash machine 5.
	if got := s.NextFault(FaultChoice{Kind: FaultCrash, N: 4, Candidates: []MachineID{2, 7, 5}}); got != 3 {
		t.Fatalf("NextFault resolved index %d, want 3 (victim 5)", got)
	}
	if got := s.NextFault(FaultChoice{Kind: FaultCrash, N: 3, Candidates: []MachineID{2, 7}}); got != 0 {
		t.Fatalf("declined crash replayed as %d, want 0", got)
	}
	// Victim 9 is gone: divergence, not a different crash.
	defer func() {
		p := recover()
		d, ok := p.(replayDivergence)
		if !ok {
			t.Fatalf("expected a replayDivergence, got %v", p)
		}
		if !strings.Contains(d.Error(), "recorded crash victim 9") {
			t.Fatalf("divergence %q does not name the missing victim", d.Error())
		}
	}()
	s.NextFault(FaultChoice{Kind: FaultCrash, N: 3, Candidates: []MachineID{2, 7}})
	t.Fatal("missing victim did not diverge")
}

// TestReaperAllocatesNothingInSteadyState: every execution stops a timer
// and crashes a started peer, so the pending-crash list is used twice per
// execution (whether the victims have started, and which phase the timer
// is in, is up to the schedule). On a pooled runtime that list must be the
// same backing array every time — a reaper that slices the head off per
// victim walks the capacity away and re-allocates it every execution — and
// with a workload that allocates nothing itself, a steady-state execution
// must not allocate at all.
func TestReaperAllocatesNothingInSteadyState(t *testing.T) {
	idle := &FuncMachine{}
	test := Test{
		Name: "crash-per-execution",
		Entry: func(ctx *Context) {
			peer := ctx.CreateMachine(idle, "peer")
			// Constant signals box into an Event for free.
			tid := ctx.StartTimer("T", peer, Signal("tick"))
			ctx.Send(peer, Signal("poke"))
			ctx.Send(peer, Signal("poke"))
			ctx.StopTimer(tid)
			ctx.Crash(peer)
		},
	}
	o := resolved(Options{Iterations: 1, MaxSteps: 1000})
	cfg := o.runtimeConfig(test, false)
	sched := NewRandomScheduler()
	pool := newExecPool(o)
	defer pool.release()
	seed := int64(0)
	exec := func() {
		seed++
		sched.Prepare(seed, o.MaxSteps)
		r := pool.runtime(sched, cfg)
		if rep := r.execute(test); rep != nil {
			t.Fatalf("seed %d: unexpected bug: %v", seed, rep.Error())
		}
		if r.steps == o.MaxSteps || len(r.pendingCrash) != 0 {
			t.Fatalf("seed %d: ended after %d steps with %d crashes pending", seed, r.steps, len(r.pendingCrash))
		}
	}
	for i := 0; i < 5; i++ {
		exec()
	}
	// head is the list's first slot, nil once its capacity has leaked away.
	head := func() *MachineID {
		if l := pool.rt.pendingCrash; cap(l) > 0 {
			return &l[:1][0]
		}
		return nil
	}
	first := head()
	for i := 0; i < 20; i++ {
		exec()
		if got := head(); got == nil || got != first {
			t.Fatalf("execution %d: the pending-crash list was re-allocated", i)
		}
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, exec); allocs != 0 {
		t.Fatalf("a steady-state crash-per-execution run allocates %.1f objects, want 0", allocs)
	}
}

// stackSpy wraps a scheduler and records, for every timer fire choice, the
// decision index it resolves and whether the step asking ran under a live
// handler (yieldPoint is on the stack) or on a stack that hosts none: the
// hub's, or a worker's between handlers.
type stackSpy struct {
	*replayScheduler
	onHost map[int]bool
}

func (s *stackSpy) NextFault(c FaultChoice) int {
	if c.Kind == FaultTimer {
		buf := make([]byte, 16<<10)
		buf = buf[:runtime.Stack(buf, false)]
		s.onHost[s.pos] = strings.Contains(string(buf), "(*Runtime).yieldPoint")
	}
	return s.replayScheduler.NextFault(c)
}

// TestTimerDivergenceOnHubAndOnHost perturbs a recorded trace at a
// DecisionTimer, so the replay scheduler raises its divergence inside the
// timer's fire choice — once where the timer step runs on a stack that
// hosts no handler (the steps that follow a machine's death) and once where
// it runs on a host machine's lent stack, from which the panic unwinds
// through the host's handler. Either way the execution ends with the divergence error a timer
// on a coroutine of its own produced (the texts are the parent's, see
// testdata/timer_lifecycle.json), never with a bug blamed on the host or a
// panic out of execute.
func TestTimerDivergenceOnHubAndOnHost(t *testing.T) {
	var c lifecycleCase
	for _, lc := range lifecycleCases() {
		if lc.name == "tick-to-halted-target" {
			c = lc
		}
	}
	o := resolved(Options{MaxSteps: c.maxSteps})
	sched := c.script
	sched.Prepare(0, o.MaxSteps)
	r := newRuntime(&sched, o.runtimeConfig(c.test, false))
	if rep := r.execute(c.test); rep != nil || sched.bad != "" {
		t.Fatalf("recording: bug %v, script error %q", rep, sched.bad)
	}
	decisions := r.dec.decode()
	for _, leg := range []struct {
		decision int
		onHost   bool
		want     string
	}{
		{6, false, "core: replay divergence: decision 6: timer choice for machine 2, trace holds timer(102 fired)"},
		{14, true, "core: replay divergence: decision 14: timer choice for machine 2, trace holds timer(102 fired)"},
	} {
		bent := append([]Decision(nil), decisions...)
		if bent[leg.decision].Kind != DecisionTimer {
			t.Fatalf("decision %d is %s, not a timer choice", leg.decision, bent[leg.decision])
		}
		bent[leg.decision].Machine += 100
		spy := &stackSpy{
			replayScheduler: newReplayScheduler(newTrace(c.test.Name, "script", 0, Faults{}, bent)),
			onHost:          map[int]bool{},
		}
		rr := newRuntime(spy, o.runtimeConfig(c.test, true))
		rep := rr.execute(c.test)
		if rep != nil || rr.divergence == nil || rr.divergence.Error() != leg.want {
			t.Fatalf("decision %d: replay = (bug %v, divergence %v), want divergence %q", leg.decision, rep, rr.divergence, leg.want)
		}
		if host, asked := spy.onHost[leg.decision]; !asked || host != leg.onHost {
			t.Fatalf("decision %d: fire choice asked=%v under a live handler=%v, want under a live handler=%v",
				leg.decision, asked, host, leg.onHost)
		}
		// The same through the public path.
		if rep, err := Replay(c.test, newTrace(c.test.Name, "script", 0, Faults{}, bent), Options{MaxSteps: c.maxSteps}); rep != nil || err == nil || err.Error() != leg.want {
			t.Fatalf("decision %d: Replay = (%v, %v), want %q", leg.decision, rep, err, leg.want)
		}
	}
}

// hotFromInit is a monitor that is hot from its first moment to the last.
type hotFromInit struct{}

func (hotFromInit) Name() string                  { return "HotFromInit" }
func (hotFromInit) Init(mc *MonitorContext)       { mc.Hot("waiting") }
func (hotFromInit) Handle(*MonitorContext, Event) {}

// TestDivergenceBetweenHandlersRecordsNoLivenessBug: a replay divergence
// raised in a timer step that no handler hosts ends the execution where it
// is, at the step the diverging decision had already counted. The monitor is
// hot throughout, so an execution that ran on to quiescence would report a
// liveness bug beside the divergence.
func TestDivergenceBetweenHandlersRecordsNoLivenessBug(t *testing.T) {
	var c lifecycleCase
	for _, lc := range lifecycleCases() {
		if lc.name == "tick-to-halted-target" {
			c = lc
		}
	}
	test := c.test
	test.Monitors = []func() Monitor{func() Monitor { return hotFromInit{} }}
	o := resolved(Options{MaxSteps: c.maxSteps})
	sched := c.script
	sched.Prepare(0, o.MaxSteps)
	r := newRuntime(&sched, o.runtimeConfig(test, false))
	if r.execute(test); sched.bad != "" { // ends hot at quiescence; the trace is what matters
		t.Fatalf("recording: script error %q", sched.bad)
	}
	const at = 6 // the timer choice that follows a machine's death
	bent := r.dec.decode()
	if bent[at].Kind != DecisionTimer {
		t.Fatalf("decision %d is %s, not a timer choice", at, bent[at])
	}
	bent[at].Machine += 100
	steps := 0
	for _, d := range bent[:at] {
		if d.Kind == DecisionSchedule {
			steps++
		}
	}
	for _, pooled := range []bool{false, true} {
		cfg := o.runtimeConfig(test, true)
		pool := newExecPool(Options{NoReuse: !pooled})
		for round := 0; round < 2; round++ {
			rr := pool.runtime(newReplayScheduler(newTrace(test.Name, "script", 0, Faults{}, bent)), cfg)
			if rep := rr.execute(test); rep != nil || rr.divergence == nil {
				t.Fatalf("pooled=%v round %d: replay = (bug %v, divergence %v), want the divergence alone", pooled, round, rep, rr.divergence)
			}
			if rr.steps != steps {
				t.Fatalf("pooled=%v round %d: diverged at step %d, want %d", pooled, round, rr.steps, steps)
			}
		}
		pool.release()
	}
}
