package core

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// --- shared test events ---

type pingEv struct {
	From MachineID
	N    int
}

func (pingEv) Name() string { return "ping" }

type pongEv struct{ N int }

func (pongEv) Name() string { return "pong" }

type doneEv struct{}

func (doneEv) Name() string { return "done" }

// pingPongTest builds a ping/pong pair exchanging rounds messages and
// notifying the "progress" monitor (if registered) when finished.
func pingPongTest(rounds int, notify bool) Test {
	return Test{
		Name: "pingpong",
		Entry: func(ctx *Context) {
			ponger := ctx.CreateMachine(&FuncMachine{
				OnEvent: func(ctx *Context, ev Event) {
					p := ev.(pingEv)
					ctx.Send(p.From, pongEv{N: p.N})
				},
			}, "ponger")
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					ctx.Send(ponger, pingEv{From: ctx.ID(), N: 0})
				},
				OnEvent: func(ctx *Context, ev Event) {
					p := ev.(pongEv)
					if p.N+1 < rounds {
						ctx.Send(ponger, pingEv{From: ctx.ID(), N: p.N + 1})
					} else if notify {
						ctx.Monitor("progress", doneEv{})
					}
				},
			}, "pinger")
		},
	}
}

func TestPingPongCompletes(t *testing.T) {
	res := MustExplore(pingPongTest(10, false), Options{Iterations: 50, Seed: 1})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if res.Executions != 50 {
		t.Fatalf("executions = %d, want 50", res.Executions)
	}
	if res.TotalSteps == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestAssertFailureIsSafetyBug(t *testing.T) {
	test := Test{
		Name: "assert",
		Entry: func(ctx *Context) {
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					ctx.Assert(false, "boom %d", 42)
				},
			}, "bomb")
		},
	}
	res := MustExplore(test, Options{Iterations: 5, Seed: 1})
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	if res.Report.Kind != SafetyBug {
		t.Fatalf("kind = %v, want safety", res.Report.Kind)
	}
	if !strings.Contains(res.Report.Message, "boom 42") {
		t.Fatalf("message %q does not contain assertion text", res.Report.Message)
	}
	if !strings.Contains(res.Report.Machine, "bomb") {
		t.Fatalf("machine %q, want bomb", res.Report.Machine)
	}
}

func TestPanicInMachineIsSafetyBug(t *testing.T) {
	test := Test{
		Name: "panic",
		Entry: func(ctx *Context) {
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					var m map[string]int
					m["x"] = 1 // nil map write panics
				},
			}, "crasher")
		},
	}
	res := MustExplore(test, Options{Iterations: 2, Seed: 1})
	if !res.BugFound || res.Report.Kind != SafetyBug {
		t.Fatalf("want safety bug, got %+v", res)
	}
	if !strings.Contains(res.Report.Message, "panic in crasher") {
		t.Fatalf("message %q lacks panic attribution", res.Report.Message)
	}
}

func TestSendToHaltedMachineIsDropped(t *testing.T) {
	test := Test{
		Name: "halt",
		Entry: func(ctx *Context) {
			victim := ctx.CreateMachine(&FuncMachine{
				OnEvent: func(ctx *Context, ev Event) {
					if ev.Name() == "die" {
						ctx.Halt()
					}
					ctx.Assert(ev.Name() == "die", "event %s delivered after halt", ev.Name())
				},
			}, "victim")
			ctx.Send(victim, Signal("die"))
			ctx.Send(victim, Signal("late1"))
			ctx.Send(victim, Signal("late2"))
		},
	}
	// Under round-robin the victim handles "die" before the later sends
	// can be delivered... but with random schedules the late events may be
	// enqueued before the halt. Either way the events must never be
	// handled after the halt — the queue is discarded.
	res := MustExplore(test, Options{Iterations: 200, Seed: 7})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestReceiveBlocksUntilMatch(t *testing.T) {
	var got []string
	test := Test{
		Name: "receive",
		Entry: func(ctx *Context) {
			got = got[:0]
			waiter := ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					ev := ctx.Receive("wanted")
					got = append(got, ev.Name())
					// The unwanted event must still be in the queue, in order.
					ev2 := ctx.Receive("other")
					got = append(got, ev2.Name())
				},
			}, "waiter")
			ctx.Send(waiter, Signal("other"))
			ctx.Send(waiter, Signal("wanted"))
		},
	}
	res := MustExplore(test, Options{Iterations: 1, Seed: 3})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if len(got) != 2 || got[0] != "wanted" || got[1] != "other" {
		t.Fatalf("got %v, want [wanted other]", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	test := Test{
		Name: "deadlock",
		Entry: func(ctx *Context) {
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					ctx.Receive("never")
				},
			}, "stuck")
		},
	}
	res := MustExplore(test, Options{Iterations: 1, Seed: 1})
	if !res.BugFound || res.Report.Kind != DeadlockBug {
		t.Fatalf("want deadlock, got %+v", res)
	}
	if !strings.Contains(res.Report.Message, "stuck") {
		t.Fatalf("message %q does not name the stuck machine", res.Report.Message)
	}
}

// progressMonitor is a liveness monitor that goes hot on "start" and cold
// on "done".
type progressMonitor struct{ MonitorSM }

func newProgressMonitor() Monitor {
	m := &progressMonitor{}
	m.SM = NewStateMachine[*MonitorContext]("progress", "Cold",
		&State[*MonitorContext]{
			Name:        "Cold",
			Transitions: map[string]string{"start": "Hot"},
			Ignore:      []string{"done"},
		},
		&State[*MonitorContext]{
			Name:        "Hot",
			Hot:         true,
			Transitions: map[string]string{"done": "Cold"},
			Ignore:      []string{"start"},
		},
	)
	return m
}

func TestLivenessHotAtTermination(t *testing.T) {
	test := Test{
		Name: "liveness-term",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			// No machine ever notifies "done": terminating hot.
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
	res := MustExplore(test, Options{Iterations: 1, Seed: 1})
	if !res.BugFound || res.Report.Kind != LivenessBug {
		t.Fatalf("want liveness bug, got %+v", res)
	}
}

func TestLivenessColdAtTerminationIsClean(t *testing.T) {
	test := Test{
		Name: "liveness-cold",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			ctx.Monitor("progress", Signal("done"))
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
	res := MustExplore(test, Options{Iterations: 5, Seed: 1})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
}

// loopers builds a test with a self-perpetuating machine so the execution
// never quiesces, forcing the step bound to trigger.
func hotLooperTest() Test {
	return Test{
		Name: "liveness-bound",
		Entry: func(ctx *Context) {
			ctx.Monitor("progress", Signal("start"))
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) { ctx.Send(ctx.ID(), Signal("tick")) },
				OnEvent: func(ctx *Context, ev Event) {
					ctx.Send(ctx.ID(), Signal("tick"))
				},
			}, "looper")
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

func TestLivenessAtBound(t *testing.T) {
	res := MustExplore(hotLooperTest(), Options{Iterations: 1, Seed: 1, MaxSteps: 500})
	if !res.BugFound || res.Report.Kind != LivenessBug {
		t.Fatalf("want liveness bug at bound, got %+v", res)
	}

	res = MustExplore(hotLooperTest(), Options{Iterations: 1, Seed: 1, MaxSteps: 500, NoLivenessBoundCheck: true})
	if res.BugFound {
		t.Fatalf("bound check disabled but bug reported: %+v", res.Report)
	}
}

func TestMonitorSafetyViolation(t *testing.T) {
	mon := func() Monitor {
		m := &MonitorSM{}
		count := 0
		m.SM = NewStateMachine[*MonitorContext]("counter", "Only",
			&State[*MonitorContext]{
				Name: "Only",
				On: map[string]func(*MonitorContext, Event){
					"inc": func(mc *MonitorContext, _ Event) {
						count++
						mc.Assert(count <= 2, "count exceeded 2")
					},
				},
			},
		)
		return m
	}
	test := Test{
		Name: "monitor-safety",
		Entry: func(ctx *Context) {
			for i := 0; i < 3; i++ {
				ctx.Monitor("counter", Signal("inc"))
			}
		},
		Monitors: []func() Monitor{mon},
	}
	res := MustExplore(test, Options{Iterations: 1, Seed: 1})
	if !res.BugFound || res.Report.Kind != SafetyBug {
		t.Fatalf("want monitor safety bug, got %+v", res)
	}
	if !strings.Contains(res.Report.Message, "counter") {
		t.Fatalf("message %q does not name the monitor", res.Report.Message)
	}
}

func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		res := MustExplore(pingPongTest(5, false), Options{Iterations: 5, Seed: int64(i)})
		if res.BugFound {
			t.Fatalf("unexpected bug: %v", res.Report.Error())
		}
	}
	// Give any stragglers a moment, then compare.
	time.Sleep(50 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before+5 {
		t.Fatalf("goroutine leak: before=%d after=%d", before, after)
	}
}

func TestRandomChoicesAreRecorded(t *testing.T) {
	test := Test{
		Name: "choices",
		Entry: func(ctx *Context) {
			for i := 0; i < 4; i++ {
				ctx.RandomBool()
			}
			v := ctx.RandomInt(10)
			ctx.Assert(v >= 0 && v < 10, "RandomInt out of range: %d", v)
			// Force a violation so the trace is surfaced.
			ctx.Assert(false, "stop")
		},
	}
	res := MustExplore(test, Options{Iterations: 1, Seed: 1})
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	bools, ints, scheds := 0, 0, 0
	for _, d := range res.Report.Trace.Decisions {
		switch d.Kind {
		case DecisionBool:
			bools++
		case DecisionInt:
			ints++
		case DecisionSchedule:
			scheds++
		}
	}
	if bools != 4 || ints != 1 || scheds == 0 {
		t.Fatalf("decisions: bools=%d ints=%d scheds=%d", bools, ints, scheds)
	}
	if res.Choices != len(res.Report.Trace.Decisions) {
		t.Fatalf("Choices=%d, trace has %d", res.Choices, len(res.Report.Trace.Decisions))
	}
}
