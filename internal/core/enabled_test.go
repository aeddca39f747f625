package core

import (
	"fmt"
	"testing"
)

// These tests run workloads that hit every transition the incremental
// enabled-set maintenance has to handle — blocking dequeues, deferral,
// ReceiveWhere, halts, crashes, restarts, timers and unreliable delivery
// — with the per-step cross-check turned on (Options.debugCheckEnabled):
// at every scheduling step the incrementally patched set is compared
// against a from-scratch rebuild, and any divergence panics the run.
// A passing test therefore proves the O(Δ) bookkeeping never disagreed
// with the O(machines) scan it replaced, step for step, on that workload.

// deferringSink defers "work" events until it has seen "open", exercising
// the Deferrer interaction with noteEnqueue and blockDequeue: while
// deferring, an enqueue of a deferred event must NOT enable the machine.
type deferringSink struct {
	open bool
	got  int
}

func (s *deferringSink) Init(*Context) {}
func (s *deferringSink) Handle(ctx *Context, ev Event) {
	switch ev.Name() {
	case "open":
		s.open = true
	case "work":
		s.got++
		if s.got == 3 {
			ctx.Halt()
		}
	}
}
func (s *deferringSink) Deferred(ev Event) bool {
	return !s.open && ev.Name() == "work"
}

func deferWorkloadTest() Test {
	return Test{
		Name: "enabled-defer",
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&deferringSink{}, "sink")
			for i := 0; i < 3; i++ {
				ctx.Send(sink, Signal("work"))
			}
			ctx.Send(sink, Signal("open"))
		},
	}
}

// receiveWorkloadTest blocks a middle machine in ReceiveWhere on a
// predicate only the *second* event satisfies, so the machine stays
// disabled across an enqueue that does not match.
func receiveWorkloadTest() Test {
	return Test{
		Name: "enabled-receive",
		Entry: func(ctx *Context) {
			waiter := ctx.CreateMachine(&FuncMachine{OnEvent: func(ctx *Context, ev Event) {
				if ev.Name() != "go" {
					return
				}
				got := ctx.ReceiveWhere("key=2", func(ev Event) bool {
					k, ok := ev.(keyedEvent)
					return ok && k.Key == 2
				})
				ctx.Assert(got.(keyedEvent).Key == 2, "matched wrong event")
			}}, "waiter")
			ctx.Send(waiter, Signal("go"))
			ctx.Send(waiter, keyedEvent{Key: 1})
			ctx.Send(waiter, keyedEvent{Key: 2})
		},
	}
}

type keyedEvent struct{ Key int }

func (keyedEvent) Name() string { return "keyed" }

// faultWorkloadTest combines a timer, a crash-and-restart cycle, and
// unreliable delivery under one budget so reapCrashes, Restart's
// re-insertion, and timer halting all run under the cross-check.
func faultWorkloadTest() Test {
	return Test{
		Name:   "enabled-faults",
		Faults: Faults{MaxCrashes: 1, MaxDrops: 1, MaxDuplicates: 1},
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&counterSink{want: 2}, "sink")
			tid := ctx.StartTimer("T", sink, Signal("ping"))
			ctx.CrashPoint(sink)
			ctx.SendUnreliable(sink, Signal("ping"))
			ctx.Restart(sink, &counterSink{want: 2})
			ctx.SendUnreliable(sink, Signal("ping"))
			ctx.StopTimer(tid)
		},
	}
}

// TestEnabledSetCrossCheck explores each workload with the per-step
// cross-check on, under both the systematic and randomized schedulers
// and with pooling on and off. Violations are fine (the fault workload
// seeds some); an incremental-set divergence would panic instead.
func TestEnabledSetCrossCheck(t *testing.T) {
	tests := []Test{deferWorkloadTest(), receiveWorkloadTest(), faultWorkloadTest()}
	for _, test := range tests {
		for _, sched := range []string{"dfs", "random"} {
			for _, noReuse := range []bool{false, true} {
				o := Options{
					Scheduler:         sched,
					Iterations:        200,
					MaxSteps:          200,
					Seed:              7,
					NoReuse:           noReuse,
					debugCheckEnabled: true,
				}
				exploreWith(test, o)
			}
		}
	}
}

// TestEnabledSetCrossCheckParallel runs the fault workload across worker
// counts: each worker's pooled runtime maintains its own enabled set, and
// the cross-check must hold in every one of them.
func TestEnabledSetCrossCheckParallel(t *testing.T) {
	for _, workers := range []int{2, 4} {
		o := Options{
			Scheduler:         "random",
			Iterations:        300,
			MaxSteps:          200,
			Seed:              11,
			Workers:           workers,
			debugCheckEnabled: true,
		}
		if _, err := Explore(faultWorkloadTest(), o); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// blockedPingPongTest is an endless ping-pong pair surrounded by `blocked`
// machines parked in ReceiveWhere on a predicate nothing ever satisfies.
// The blocked machines take one step each to reach their Receive and then
// never become schedulable again, so the steady-state stepping cost is the
// two ping-pongers' — *if* the engine's per-step bookkeeping is independent
// of how many disabled machines exist. An engine that rescans every machine
// (and its inbox) at every step grows linearly with the blocked count; the
// incremental enabled set never touches a machine whose schedulability did
// not change. Events, the bystander impl, its predicate and the machine
// names are hoisted out of the entry (events are immutable and the impl is
// stateless, so sharing is safe): per-send boxing and per-execution
// allocation are workload cost, and would smear across the ns/step metric.
func blockedPingPongTest(blocked int) Test {
	pong := Event(Signal("pong"))
	bystander := &FuncMachine{
		OnInit: func(ctx *Context) {
			ctx.ReceiveWhere("never", func(Event) bool { return false })
		},
	}
	names := make([]string, blocked)
	for i := range names {
		names[i] = fmt.Sprintf("blocked%d", i)
	}
	return Test{
		Name: fmt.Sprintf("bench-enabled-%d", blocked),
		Entry: func(ctx *Context) {
			for _, name := range names {
				ctx.CreateMachine(bystander, name)
			}
			ponger := ctx.CreateMachine(&FuncMachine{
				OnEvent: func(ctx *Context, ev Event) {
					ctx.Send(ev.(pingEv).From, pong)
				},
			}, "ponger")
			var ping Event
			ctx.CreateMachine(&FuncMachine{
				OnInit: func(ctx *Context) {
					ping = pingEv{From: ctx.ID()}
					ctx.Send(ponger, ping)
				},
				OnEvent: func(ctx *Context, ev Event) {
					ctx.Send(ponger, ping)
				},
			}, "pinger")
		},
	}
}

// BenchmarkEnabledSet measures scheduling throughput as dead weight grows:
// the ping-pong workload with 32 and 128 permanently blocked bystanders.
// Invariant: ns/step must not scale with the blocked-machine count — read
// the *ratio* between the cells. Each op explores several pooled iterations
// so one-time engine setup (a coroutine per live machine) amortizes away
// and the metric isolates steady-state stepping.
func BenchmarkEnabledSet(b *testing.B) {
	for _, blocked := range []int{32, 128} {
		b.Run(fmt.Sprintf("blocked=%d", blocked), func(b *testing.B) {
			b.ReportAllocs()
			test := blockedPingPongTest(blocked)
			opts := Options{Scheduler: "rr", Iterations: 10, MaxSteps: 10000, Seed: 1, NoLivenessBoundCheck: true}
			b.ResetTimer()
			totalSteps := int64(0)
			for i := 0; i < b.N; i++ {
				res := MustExplore(test, opts)
				totalSteps += res.TotalSteps
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSteps), "ns/step")
		})
	}
}
