package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tailSend is how a tailSendTest handler ends: Send or SendLast.
type tailSend func(c *Context, target MachineID, ev Event)

// pokeEvent asks a tail node to answer its sender with a tock.
type pokeEvent struct{ From MachineID }

func (pokeEvent) Name() string { return "poke" }

// tailNode is a store node: it stages a write per ping (syncing every
// second one) and answers it, answers a poke with a tock, and — restarted
// (recovered set) — reads its durable store back and reports in. Every
// handler ends in send.
type tailNode struct {
	send      tailSend
	collector MachineID
	recovered bool
	pings     int
}

func (n *tailNode) Init(ctx *Context) {
	if n.recovered {
		ctx.Recover()
		n.send(ctx, n.collector, Signal("ready"))
	}
}

func (n *tailNode) Handle(ctx *Context, ev Event) {
	switch e := ev.(type) {
	case pingEvent:
		n.pings++
		ctx.Persist(fmt.Sprint("k", n.pings), []byte{byte(n.pings)})
		if n.pings%2 == 0 {
			ctx.Sync()
		}
		n.send(ctx, e.From, Signal("echo"))
	case pokeEvent:
		n.send(ctx, e.From, Signal("tock"))
	}
}

// tailCollector counts the echoes — the progress monitor cools once all
// want of them are in — and pokes node with each of the first two ticks of
// the timer it starts, stopping it at the third.
type tailCollector struct {
	send      tailSend
	node      MachineID
	want, got int
	timer     TimerID
	ticks     int
}

func (c *tailCollector) Init(ctx *Context) {
	ctx.Monitor("progress", Signal("start"))
	c.timer = ctx.StartTimer("tick", ctx.ID(), Signal("tick"))
}

func (c *tailCollector) Handle(ctx *Context, ev Event) {
	switch ev.Name() {
	case "echo":
		if c.got++; c.got == c.want {
			ctx.Monitor("progress", Signal("done"))
		}
	case "tick":
		if c.ticks++; c.ticks == 3 {
			ctx.StopTimer(c.timer)
			return
		}
		c.send(ctx, c.node, pokeEvent{From: ctx.ID()})
	}
}

// tailInjector offers a crash over the nodes a bounded number of times and
// restarts a victim as a recovering node. parked, when non-nil, counts the
// crashes taken while the victim was parked by SendLast.
type tailInjector struct {
	send      tailSend
	nodes     []MachineID
	collector MachineID
	offers    int
	parked    *int
}

func (in *tailInjector) Init(ctx *Context) {
	in.send(ctx, ctx.ID(), Signal("offer"))
}

func (in *tailInjector) Handle(ctx *Context, ev Event) {
	if in.offers <= 0 || ctx.CrashBudget() <= 0 {
		ctx.Halt()
	}
	in.offers--
	var parked []MachineID // nodes whose handler ended in SendLast, not yet stepped
	for _, id := range in.nodes {
		if ctx.r.machines[id].parked {
			parked = append(parked, id)
		}
	}
	if v := ctx.CrashPoint(in.nodes...); v != NoMachine {
		if in.parked != nil && slices.Contains(parked, v) {
			*in.parked++
		}
		ctx.Restart(v, &tailNode{send: in.send, collector: in.collector, recovered: true})
	}
	in.send(ctx, ctx.ID(), Signal("offer"))
}

// tailSendTest is one harness written twice: every handler above that ends
// in a send, and the entry function, ends in SendLast when last is set, in
// Send otherwise. Two store nodes answer three pings each, the timer's
// ticks poke the first and the entry pokes the second, and an injector
// may crash either — one it catches parked still holds a staged write, so
// the crash presents a FaultPersist choice — and restart it. Executions
// quiesce, cold or hot (a crash lost a ping), or run into the bound while
// the timer keeps stepping; hot ones report a liveness bug.
func tailSendTest(last bool, parked *int) Test {
	send := tailSend((*Context).Send)
	if last {
		send = (*Context).SendLast
	} else {
		parked = nil
	}
	return Test{
		Name:   "tail-send",
		Faults: Faults{MaxCrashes: 1, MaxTornCrashes: 1},
		Entry: func(ctx *Context) {
			const rounds = 3
			nodes := make([]MachineID, 2)
			col := MachineID(len(nodes) + 1) // created right after the nodes
			for i := range nodes {
				nodes[i] = ctx.CreateMachine(&tailNode{send: send, collector: col}, fmt.Sprint("node", i))
			}
			ctx.CreateMachine(&tailCollector{send: send, node: nodes[0], want: rounds * len(nodes)}, "collector")
			ctx.CreateMachine(&tailInjector{send: send, nodes: nodes, collector: col, offers: 3, parked: parked}, "injector")
			for round := 0; round < rounds; round++ {
				for _, id := range nodes {
					ctx.Send(id, pingEvent{From: col})
				}
			}
			send(ctx, nodes[1], pokeEvent{From: col})
		},
		Monitors: []func() Monitor{newProgressMonitor},
	}
}

// tailRun is what one execution decided, and how it ended.
type tailRun struct {
	decisions []Decision
	cov       uint64
	steps     int
	bug       string
	log       []string
}

// TestSendLastIsATailSend: SendLast decides exactly what Send as the
// handler's last statement decides. Under every registered scheduler, seeds
// 1–8, and the dfs oracle's first eight leaves, pooled and unpooled, the two versions of tailSendTest make the same
// decisions, fingerprints, steps, bug reports and replay logs, execution by
// execution — with crashes that catch a node parked, FaultPersist choices,
// restarts, timer steps, liveness reports, and executions that quiesce and
// that reach the bound all among them.
func TestSendLastIsATailSend(t *testing.T) {
	const maxSteps = 150
	var parked, persists, quiesced, bounded, bugs int
	for _, name := range append(SchedulerNames(), "dfs") {
		for _, noReuse := range []bool{false, true} {
			var runs [2][]tailRun
			for v, last := range []bool{false, true} {
				test := tailSendTest(last, &parked)
				o := resolved(Options{MaxSteps: maxSteps, NoReuse: noReuse})
				cfg := o.runtimeConfig(test, true)
				cfg.checkEnabled = true
				s := newScheduler(t, name, 40)
				if _, adaptive := s.(LengthHinted); adaptive {
					cfg.lengthHint = 40
				}
				pool := newExecPool(o)
				for seed := int64(1); seed <= 8; seed++ {
					if s.Prepare(seed, maxSteps); treeSpent(s) {
						break
					}
					cfg.seed = seed
					r := pool.runtime(s, cfg)
					run := tailRun{}
					if rep := r.execute(test); rep != nil {
						run.bug = fmt.Sprintf("%v at step %d by %q: %s", rep.Kind, rep.Step, rep.Machine, rep.Message)
					}
					run.decisions, run.cov, run.steps = r.dec.decode(), r.Fingerprint(), r.steps
					run.log = r.logLines()
					runs[v] = append(runs[v], run)
				}
				pool.release()
			}
			if len(runs[0]) != len(runs[1]) {
				t.Fatalf("%s NoReuse=%v: %d executions with Send, %d with SendLast", name, noReuse, len(runs[0]), len(runs[1]))
			}
			for i, want := range runs[0] {
				if got := runs[1][i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s NoReuse=%v execution %d: SendLast ran\n  %d steps, fingerprint %x, bug %q, %d decisions\nSend ran\n  %d steps, fingerprint %x, bug %q, %d decisions",
						name, noReuse, i, got.steps, got.cov, got.bug, len(got.decisions), want.steps, want.cov, want.bug, len(want.decisions))
				}
				switch {
				case want.steps >= maxSteps:
					bounded++
				default:
					quiesced++
				}
				if want.bug != "" {
					bugs++
				}
				for _, d := range want.decisions {
					if d.Kind == DecisionPersist {
						persists++
					}
				}
			}
		}
	}
	if parked == 0 || persists == 0 || quiesced == 0 || bounded == 0 || bugs == 0 {
		t.Fatalf("vacuous: %d crashes of a parked node, %d FaultPersist choices, %d quiesced and %d bounded executions, %d bugs",
			parked, persists, quiesced, bounded, bugs)
	}
}

// TestContextAfterSendLastIsReported: a Context call with an effect after
// SendLast in the same handler — a send, a decision, a monitor
// notification, a halt, a log line, storage, a failing assertion, in the
// handler's body or in its deferred calls — ends the execution with a
// safety violation attributed to the machine that names SendLast; a pure
// read does not.
func TestContextAfterSendLastIsReported(t *testing.T) {
	for _, c := range []struct {
		op       string
		after    func(ctx *Context)
		reported bool
	}{
		{"Send", func(ctx *Context) { ctx.Send(ctx.ID(), Signal("again")) }, true},
		{"SendLast", func(ctx *Context) { ctx.SendLast(ctx.ID(), Signal("again")) }, true},
		{"RandomInt", func(ctx *Context) { ctx.RandomInt(2) }, true},
		{"RandomBool", func(ctx *Context) { ctx.RandomBool() }, true},
		{"Monitor", func(ctx *Context) { ctx.Monitor("progress", Signal("start")) }, true},
		{"Halt", func(ctx *Context) { ctx.Halt() }, true},
		{"Logf", func(ctx *Context) { ctx.Logf("late") }, true},
		{"Persist", func(ctx *Context) { ctx.Persist("k", nil) }, true},
		{"Assert", func(ctx *Context) { ctx.Assert(false, "late") }, true},
		{"CrashBudget", func(ctx *Context) { ctx.CrashBudget() }, true},
		{"deferred Logf", func(ctx *Context) { defer ctx.Logf("late") }, true},
		{"ID", func(ctx *Context) { _ = ctx.ID() }, false},
		{"MachineName, Step, Logging and a holding Assert", func(ctx *Context) {
			_, _, _ = ctx.MachineName(), ctx.Step(), ctx.Logging()
			ctx.Assert(true, "holds")
		}, false},
	} {
		test := Test{
			Name: "send-last-misuse",
			Entry: func(ctx *Context) {
				sink := ctx.CreateMachine(quietMachine(), "sink")
				m := ctx.CreateMachine(&FuncMachine{OnEvent: func(ctx *Context, ev Event) {
					if ev.Name() != "go" {
						return
					}
					ctx.SendLast(sink, Signal("out"))
					c.after(ctx)
				}}, "tail")
				ctx.Send(m, Signal("go"))
			},
			Monitors: []func() Monitor{newProgressMonitor},
		}
		for _, noReuse := range []bool{false, true} {
			res := MustExplore(test, Options{Iterations: 4, Seed: 1, Workers: 1, NoReuse: noReuse, NoReplayLog: true})
			if !c.reported {
				if res.BugFound {
					t.Errorf("%s after SendLast, NoReuse=%v: reported %v", c.op, noReuse, res.Report.Error())
				}
				continue
			}
			op, _, _ := strings.Cut(strings.TrimPrefix(c.op, "deferred "), " ")
			if !res.BugFound || res.Report.Kind != SafetyBug || res.Report.Machine != "tail(2)" ||
				!strings.HasPrefix(res.Report.Message, op+" after SendLast") {
				t.Errorf("%s after SendLast, NoReuse=%v: want a safety bug of tail(2) naming %s after SendLast, got %+v", c.op, noReuse, op, res.Report)
			}
		}
	}
}
