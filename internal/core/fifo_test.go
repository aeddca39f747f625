package core

import (
	"testing"
	"testing/quick"
)

// seqEv carries a sequence number for FIFO-order checking.
type seqEv struct{ N int }

func (seqEv) Name() string { return "seq" }

// TestFIFODeliveryProperty: messages from one machine to another are
// always handled in send order, under any schedule.
func TestFIFODeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		violated := false
		test := Test{
			Name: "fifo",
			Entry: func(ctx *Context) {
				last := -1
				receiver := ctx.CreateMachine(&FuncMachine{
					OnEvent: func(ctx *Context, ev Event) {
						n := ev.(seqEv).N
						if n != last+1 {
							violated = true
						}
						last = n
					},
				}, "receiver")
				ctx.CreateMachine(&FuncMachine{
					OnInit: func(ctx *Context) {
						for i := 0; i < 10; i++ {
							ctx.Send(receiver, seqEv{N: i})
						}
					},
				}, "sender")
			},
		}
		res := MustExplore(test, Options{Scheduler: "random", Iterations: 20, Seed: seed, NoReplayLog: true})
		return !res.BugFound && !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedSendersPreservePerSenderOrder: two senders interleave
// arbitrarily, but each sender's own messages stay ordered.
func TestInterleavedSendersPreservePerSenderOrder(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		test := Test{
			Name: "fifo2",
			Entry: func(ctx *Context) {
				last := map[MachineID]int{}
				receiver := ctx.CreateMachine(&FuncMachine{
					OnEvent: func(ctx *Context, ev Event) {
						// Encode sender in the high bits.
						n := ev.(seqEv).N
						sender, seq := MachineID(n>>16), n&0xffff
						if prev, seen := last[sender]; seen && seq != prev+1 {
							ok = false
						}
						last[sender] = seq
					},
				}, "receiver")
				for s := 0; s < 2; s++ {
					ctx.CreateMachine(&FuncMachine{
						OnInit: func(ctx *Context) {
							for i := 0; i < 8; i++ {
								ctx.Send(receiver, seqEv{N: int(ctx.ID())<<16 | i})
							}
						},
					}, "sender")
				}
			},
		}
		res := MustExplore(test, Options{Scheduler: "random", Iterations: 20, Seed: seed, NoReplayLog: true})
		return !res.BugFound && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAllSchedulersProduceValidExecutions runs every scheduler over the
// same clean workload: none may report a bug or pick disabled machines
// (the runtime would panic on an invalid pick).
func TestAllSchedulersProduceValidExecutions(t *testing.T) {
	for _, sched := range []string{"random", "pct", "rr", "dfs", "delay"} {
		res := exploreWith(pingPongTest(8, false), Options{Scheduler: sched, Iterations: 30, Seed: 3, NoReplayLog: true})
		if res.BugFound {
			t.Fatalf("%s: unexpected bug: %v", sched, res.Report.Error())
		}
		if res.Executions == 0 {
			t.Fatalf("%s: no executions ran", sched)
		}
	}
}
