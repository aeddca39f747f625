package wal

import (
	"strconv"

	"github.com/gostorm/gostorm/internal/core"
)

// The harness: one log node fed fire-and-forget appends, one bounded
// crash injector, and the durability monitor — the recovery oracle that
// compares what recovery rebuilt against what the node set out to write.

// appendEvent asks the node to append Val to its log.
type appendEvent struct{ Val int }

func (appendEvent) Name() string { return "append" }

// Monitor notification events. They travel by pointer to a record the
// notifying machine owns and rewrites for the next notification:
// Context.Monitor delivers synchronously and the oracle copies what it
// keeps, so a record is never read after the call returns and nothing is
// boxed.

// notifyIntent: the node started writing record Seq with value Val.
type notifyIntent struct {
	Seq int
	Val int
}

func (notifyIntent) Name() string { return "walIntent" }

// notifyCommit: the Sync covering record Seq returned — the record is
// durable from here on.
type notifyCommit struct{ Seq int }

func (notifyCommit) Name() string { return "walCommit" }

// notifyRecovered: a restarted node finished recovery with these values.
type notifyRecovered struct{ Vals []int }

func (notifyRecovered) Name() string { return "walRecovered" }

// MonitorName is the durability/recovery oracle's registered name.
const MonitorName = "WalDurability"

// Config parameterizes the scenario.
type Config struct {
	// Appends is the number of records the driver feeds the node
	// (default 3; values are 1-based so a zero value always means a torn
	// payload read, never real data).
	Appends int
	// FixTornTail applies the recovery fix: truncate the log at the
	// first record whose payload is missing instead of trusting the
	// header (see Recover).
	FixTornTail bool
}

func (c Config) withDefaults() Config {
	if c.Appends <= 0 {
		c.Appends = 3
	}
	return c
}

// nodeMachine is the log node: one record per append — intent, header,
// payload, sync, commit. Persist and Sync are scheduling points, so the
// injector gets a shot at every boundary inside the append, which is
// where the torn states live.
type nodeMachine struct {
	cfg Config
	// next is the next record index — volatile, rebuilt by recovery.
	next int
	// intent and commit are the node's notification records.
	intent notifyIntent
	commit notifyCommit
}

func (n *nodeMachine) Init(*core.Context) {}

func (n *nodeMachine) Handle(ctx *core.Context, ev core.Event) {
	ap, ok := ev.(appendEvent)
	if !ok {
		return
	}
	seq := n.next
	n.next++
	n.intent = notifyIntent{Seq: seq, Val: ap.Val}
	ctx.Monitor(MonitorName, &n.intent)
	ctx.Persist(hdrKey(seq), []byte{1})
	ctx.Persist(valKey(seq), []byte{byte(ap.Val)})
	ctx.Sync()
	n.commit = notifyCommit{Seq: seq}
	ctx.Monitor(MonitorName, &n.commit)
}

// recoveredNode is the restarted incarnation: it reads the surviving
// durable map back, runs recovery, reports the rebuilt log to the
// oracle, and serves any further appends from where the recovered log
// ends (the volatile append cursor is itself recovered state).
type recoveredNode struct {
	cfg       Config
	node      nodeMachine
	recovered notifyRecovered
}

func (r *recoveredNode) Init(ctx *core.Context) {
	r.recovered.Vals = Recover(ctx.Recover(), r.cfg.FixTornTail)
	ctx.Monitor(MonitorName, &r.recovered)
	r.node = nodeMachine{cfg: r.cfg, next: len(r.recovered.Vals)}
}

func (r *recoveredNode) Handle(ctx *core.Context, ev core.Event) {
	r.node.Handle(ctx, ev)
}

// durabilityMonitor is the recovery oracle. It tracks the node's write
// intents (in sequence order) and how many of them committed; at every
// recovery it checks the two halves of the crash-consistency contract:
//
//   - durability: every committed record survives, so the recovered log
//     is at least commits long;
//   - integrity: the recovered log is a value-matching prefix of the
//     intent log — recovery may keep a complete-but-un-synced suffix
//     (those records carry the intended values) or discard it, but it
//     must never surface a record with a value nobody wrote, which is
//     exactly what trusting a torn tail produces.
//
// After a recovery the oracle rebaselines to the recovered log: the
// surviving records are the durable state the next incarnation builds
// on, and un-recovered intents are gone for good. Every check formats its
// message only when it fails.
type durabilityMonitor struct {
	intents []int
	commits int
}

func (m *durabilityMonitor) Name() string              { return MonitorName }
func (m *durabilityMonitor) Init(*core.MonitorContext) {}

func (m *durabilityMonitor) Handle(mc *core.MonitorContext, ev core.Event) {
	switch e := ev.(type) {
	case *notifyIntent:
		mc.Assert(e.Seq == len(m.intents), "intent for record %d, expected %d", e.Seq, len(m.intents))
		m.intents = append(m.intents, e.Val)
	case *notifyCommit:
		mc.Assert(e.Seq == m.commits, "commit for record %d, expected %d", e.Seq, m.commits)
		m.commits++
	case *notifyRecovered:
		mc.Assert(len(e.Vals) >= m.commits,
			"recovery lost committed records: %d recovered, %d committed", len(e.Vals), m.commits)
		for i, v := range e.Vals {
			if i < len(m.intents) && v == m.intents[i] {
				continue
			}
			want := "none"
			if i < len(m.intents) {
				want = strconv.Itoa(m.intents[i])
			}
			mc.Assert(false, "recovery surfaced record %d with value %d, which was never written (intent: %s)", i, v, want)
		}
		m.intents = append(m.intents[:0], e.Vals...)
		m.commits = len(e.Vals)
	}
}

// injector is the scenario's crash injector. The node, its only
// candidate, is held in a slot of the injector, so an execution allocates
// no candidate slice and no closure capturing one.
type injector struct {
	core.FaultInjector
	node [1]core.MachineID
}

func (in *injector) candidates() []core.MachineID { return in.node[:] }

// Scenario builds the WAL torn-tail systematic test: a seeded recovery
// bug with FixTornTail unset, a clean system with it applied.
func Scenario(cfg Config) core.Test {
	cfg = cfg.withDefaults()
	name := "wal-torn-tail"
	if cfg.FixTornTail {
		name = "wal-fixed"
	}
	// A crash restarts the node as its recovery incarnation.
	restart := func(ctx *core.Context, victim core.MachineID) {
		ctx.Restart(victim, &recoveredNode{cfg: cfg})
	}
	return core.Test{
		Name: name,
		Entry: func(ctx *core.Context) {
			in := &injector{FaultInjector: core.FaultInjector{OnCrash: restart, Offers: 4*cfg.Appends + 4}}
			in.Candidates = in.candidates
			in.node[0] = ctx.CreateMachine(&nodeMachine{cfg: cfg}, "Node")
			ctx.CreateMachine(in, "Injector")
			for i := 1; i < cfg.Appends; i++ {
				ctx.Send(in.node[0], appendEvent{Val: i})
			}
			ctx.SendLast(in.node[0], appendEvent{Val: cfg.Appends})
		},
		Faults: core.Faults{MaxCrashes: 1, MaxTornCrashes: 1},
		Monitors: []func() core.Monitor{
			// The intent log is presized: a node never writes more than
			// cfg.Appends records.
			func() core.Monitor { return &durabilityMonitor{intents: make([]int, 0, cfg.Appends)} },
		},
	}
}
