package replsys

import (
	"fmt"
	"strconv"

	"github.com/gostorm/gostorm/internal/core"
)

// This file is the P# test harness of Figure 2, translated to the Go
// runtime: the real Server is wrapped in a machine; the client, storage
// nodes and timers are modeled; and safety/liveness monitors specify
// correctness. Machines are wired first and kicked off with an explicit
// start signal so no message can race the wiring.

// msgEvent wraps a protocol message for transport between harness machines.
type msgEvent struct{ Msg Message }

func (e msgEvent) Name() string { return e.Msg.Kind() }

// syncReport is a storage node's tick reply on its way to the server: a
// Sync that travels by pointer as an event and reaches the server's handler
// by value, so neither hop boxes it. The tick is most of what a replsys
// execution does (~1 000 an execution), and boxing the Sync into Message and
// the msgEvent into Event was 97 % of the execution's allocations.
//
// Ownership: a node takes a record from the execution's syncReports, fills
// it and sends it; from then on it belongs to the server's inbox and then to
// serverMachine.Handle, which hands it back once Server.handleSync has
// returned (the server keeps no reference to a Sync's Log past the call).
// Several reports of one node can be queued at once, each with its own Log
// view, which is why the records are pooled and not one per node.
type syncReport struct{ Sync }

func (*syncReport) Name() string { return Sync{}.Kind() }

// syncReports is one execution's free list of syncReport records.
type syncReports struct{ free []*syncReport }

func (p *syncReports) get() *syncReport {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return &syncReport{}
}

func (p *syncReports) put(r *syncReport) {
	r.Sync = Sync{}
	p.free = append(p.free, r)
}

// Monitor notification events.

// notifyReq tells monitors a client request was issued.
type notifyReq struct{}

func (notifyReq) Name() string { return "notifyReq" }

// notifyAck tells monitors the server acknowledged value Val.
type notifyAck struct{ Val int }

func (notifyAck) Name() string { return "notifyAck" }

// notifyStored tells the safety monitor that a storage node persisted Val.
type notifyStored struct {
	Node NodeID
	Val  int
}

func (notifyStored) Name() string { return "notifyStored" }

// timerTick is the modeled timeout event (Figure 9).
type timerTick struct{}

func (timerTick) Name() string { return "TimerTick" }

// Names of the two specification monitors of Figure 2, plus the
// crash-consistency oracle registered by DurableNodes scenarios.
const (
	SafetyMonitorName     = "ReplicaSafety"
	LivenessMonitorName   = "RequestProgress"
	DurabilityMonitorName = "NodeDurability"
)

// Monitors selects which specification monitors a scenario registers.
type Monitors int

const (
	// WithSafety registers the replica-count safety monitor (§2.4).
	WithSafety Monitors = 1 << iota
	// WithLiveness registers the request-progress liveness monitor (§2.5).
	WithLiveness
)

// serverMachine wraps the real Server; it implements Network so the
// server's outbound messages are relayed through the runtime (the modeled
// network engine of the paper), and it notifies the monitors at the
// specification-relevant points.
type serverMachine struct {
	server  *Server
	ctx     *core.Context
	route   map[NodeID]core.MachineID
	mons    Monitors
	reports *syncReports
}

// Send implements Network.
func (s *serverMachine) Send(to NodeID, msg Message) {
	if ack, ok := msg.(Ack); ok {
		if s.mons&WithLiveness != 0 {
			s.ctx.Monitor(LivenessMonitorName, notifyAck{Val: ack.Val})
		}
		if s.mons&WithSafety != 0 {
			s.ctx.Monitor(SafetyMonitorName, notifyAck{Val: ack.Val})
		}
	}
	target, ok := s.route[to]
	s.ctx.Assert(ok, "server sent %s to unrouted node %d", msg.Kind(), to)
	s.ctx.Send(target, msgEvent{Msg: msg})
}

// Init implements Machine; the server is passive until messages arrive.
func (s *serverMachine) Init(*core.Context) {}

// Handle delivers a protocol message to the wrapped server.
func (s *serverMachine) Handle(ctx *core.Context, ev core.Event) {
	s.ctx = ctx
	if r, ok := ev.(*syncReport); ok {
		s.server.handleSync(r.Sync)
		s.reports.put(r)
		return
	}
	msg := ev.(msgEvent).Msg
	if _, ok := msg.(ClientReq); ok {
		if s.mons&WithLiveness != 0 {
			ctx.Monitor(LivenessMonitorName, notifyReq{})
		}
		if s.mons&WithSafety != 0 {
			ctx.Monitor(SafetyMonitorName, notifyReq{})
		}
	}
	s.server.HandleMessage(msg)
}

// storageNodeMachine is the modeled storage node: it stores replicated
// values in memory and reports its log to the server when its timer fires.
// With durable set (ScenarioConfig.DurableNodes) it write-ahead persists
// each replicated value through the crash-consistency plane before
// applying it: Persist then Sync per append, so every applied value is
// durably committed by the time the node reports it.
type storageNodeMachine struct {
	node     NodeID
	serverID core.MachineID
	log      []int
	mons     Monitors
	durable  bool
	reports  *syncReports
}

func (sn *storageNodeMachine) Init(*core.Context) {}

func (sn *storageNodeMachine) Handle(ctx *core.Context, ev core.Event) {
	switch e := ev.(type) {
	case msgEvent:
		if repl, ok := e.Msg.(ReplReq); ok {
			if sn.durable {
				seq := len(sn.log)
				ctx.Monitor(DurabilityMonitorName, notifyDurAppend{Node: sn.node, Seq: seq, Val: repl.Val})
				ctx.Persist(logKey(seq), []byte{byte(repl.Val)})
				ctx.Sync()
				ctx.Monitor(DurabilityMonitorName, notifyDurSynced{Node: sn.node, Seq: seq})
			}
			sn.log = append(sn.log, repl.Val)
			if sn.mons&WithSafety != 0 {
				ctx.Monitor(SafetyMonitorName, notifyStored{Node: sn.node, Val: repl.Val})
			}
		}
	case timerTick:
		// Share, don't clone: the log is append-only (recovery installs a
		// fresh slice, it never rewrites this one) and the server only
		// reads it, so the report is a capped view — the sender never
		// writes below n, and an append past n cannot reach the view.
		n := len(sn.log)
		r := sn.reports.get()
		r.Sync = Sync{Node: sn.node, Log: sn.log[:n:n]}
		ctx.SendLast(sn.serverID, r)
	}
}

// logKey names a durable node's i-th log slot. Recovery scans densely
// from zero, never iterating the durable map.
func logKey(i int) string { return "log/" + strconv.Itoa(i) }

// Durability-oracle notification events (DurableNodes scenarios only).

// notifyDurAppend: node started persisting log slot Seq with value Val.
type notifyDurAppend struct {
	Node NodeID
	Seq  int
	Val  int
}

func (notifyDurAppend) Name() string { return "durAppend" }

// notifyDurSynced: the Sync covering slot Seq returned.
type notifyDurSynced struct {
	Node NodeID
	Seq  int
}

func (notifyDurSynced) Name() string { return "durSynced" }

// notifyDurRecovered: a restarted node rebuilt this log from Recover.
type notifyDurRecovered struct {
	Node NodeID
	Vals []int
}

func (notifyDurRecovered) Name() string { return "durRecovered" }

// recoveredStorageNode is a crashed storage node's next incarnation: it
// rebuilds the log from the surviving durable map, reports it to the
// durability oracle, and resumes normal storage-node service — the sync
// timer attached to the machine keeps ticking across the restart, so the
// server's re-replication path heals whatever the crash lost.
type recoveredStorageNode struct {
	inner storageNodeMachine
}

func (r *recoveredStorageNode) Init(ctx *core.Context) {
	durable := ctx.Recover()
	var vals []int
	for i := 0; ; i++ {
		b, ok := durable[logKey(i)]
		if !ok {
			break
		}
		vals = append(vals, int(b[0]))
	}
	ctx.Monitor(DurabilityMonitorName, notifyDurRecovered{Node: r.inner.node, Vals: vals})
	// The recovered values are genuinely stored at this node — including a
	// torn-surviving write the pre-crash incarnation never got to report.
	// Replay them to the safety monitor so its view matches what the node
	// will report to the server.
	if r.inner.mons&WithSafety != 0 {
		for _, v := range vals {
			ctx.Monitor(SafetyMonitorName, notifyStored{Node: r.inner.node, Val: v})
		}
	}
	r.inner.log = vals
}

func (r *recoveredStorageNode) Handle(ctx *core.Context, ev core.Event) {
	r.inner.Handle(ctx, ev)
}

// restartRecovered is the durable scenario's OnCrash: it restarts the
// victim as the recovery incarnation of its template in nodes.
func restartRecovered(nodes map[core.MachineID]*storageNodeMachine) func(*core.Context, core.MachineID) {
	return func(ctx *core.Context, victim core.MachineID) {
		tmpl := nodes[victim]
		ctx.Restart(victim, &recoveredStorageNode{inner: storageNodeMachine{
			node: tmpl.node, serverID: tmpl.serverID, mons: tmpl.mons, durable: true, reports: tmpl.reports,
		}})
	}
}

// durabilityMonitor is the per-node recovery oracle: every synced slot
// must survive a crash, and every recovered slot must carry the value
// that was actually written there — never torn garbage. After a recovery
// it rebaselines to the recovered log, which is the durable state the
// next incarnation builds on.
type durabilityMonitor struct {
	nodes map[NodeID]*nodeDurState
}

type nodeDurState struct {
	intents []int
	synced  int
}

func (m *durabilityMonitor) Name() string              { return DurabilityMonitorName }
func (m *durabilityMonitor) Init(*core.MonitorContext) {}

func (m *durabilityMonitor) state(n NodeID) *nodeDurState {
	st, ok := m.nodes[n]
	if !ok {
		st = &nodeDurState{}
		m.nodes[n] = st
	}
	return st
}

func (m *durabilityMonitor) Handle(mc *core.MonitorContext, ev core.Event) {
	switch e := ev.(type) {
	case notifyDurAppend:
		st := m.state(e.Node)
		mc.Assert(e.Seq == len(st.intents), "node %d: append intent for slot %d, expected %d",
			e.Node, e.Seq, len(st.intents))
		st.intents = append(st.intents, e.Val)
	case notifyDurSynced:
		st := m.state(e.Node)
		mc.Assert(e.Seq == st.synced, "node %d: sync for slot %d, expected %d", e.Node, e.Seq, st.synced)
		st.synced = e.Seq + 1
	case notifyDurRecovered:
		st := m.state(e.Node)
		mc.Assert(len(e.Vals) >= st.synced,
			"node %d: recovery lost synced slots: %d recovered, %d synced", e.Node, len(e.Vals), st.synced)
		for i, v := range e.Vals {
			mc.Assert(i < len(st.intents) && v == st.intents[i],
				"node %d: recovery surfaced slot %d with value %d, which was never written", e.Node, i, v)
		}
		st.intents = append(st.intents[:0], e.Vals...)
		st.synced = len(e.Vals)
	}
}

// clientMachine is the modeled client: it issues clientRequests requests
// with nondeterministically chosen values, awaiting an Ack after each.
type clientMachine struct {
	node     NodeID
	serverID core.MachineID
}

func (c *clientMachine) Init(*core.Context) {}

func (c *clientMachine) Handle(ctx *core.Context, ev core.Event) {
	if ev.Name() != "start" {
		return
	}
	for i := 0; i < clientRequests; i++ {
		val := 1 + ctx.RandomInt(100)
		ctx.Send(c.serverID, msgEvent{Msg: ClientReq{Client: c.node, Val: val}})
		ctx.Receive("Ack")
	}
}

// safetyMonitor checks that an Ack is only sent once the target number of
// distinct storage nodes hold the acknowledged value (§2.4).
type safetyMonitor struct {
	target int
	stored map[NodeID]int
}

func newSafetyMonitor(target int) func() core.Monitor {
	return func() core.Monitor {
		return &safetyMonitor{target: target, stored: make(map[NodeID]int)}
	}
}

func (m *safetyMonitor) Name() string                 { return SafetyMonitorName }
func (m *safetyMonitor) Init(mc *core.MonitorContext) {}

func (m *safetyMonitor) Handle(mc *core.MonitorContext, ev core.Event) {
	switch e := ev.(type) {
	case notifyReq:
		// Value tracking is per-Ack below; nothing to do.
	case notifyStored:
		m.stored[e.Node] = e.Val
	case notifyAck:
		// A count: the map's iteration order cannot show in it.
		count := 0
		for _, v := range m.stored {
			if v == e.Val {
				count++
			}
		}
		mc.Assert(count >= m.target,
			"Ack sent for value %d with only %d of %d replicas stored", e.Val, count, m.target)
	}
}

// newLivenessMonitor builds the request-progress monitor of §2.5: hot while
// a request awaits acknowledgement, cold otherwise.
func newLivenessMonitor() core.Monitor {
	sm := core.NewStateMachine[*core.MonitorContext](LivenessMonitorName, "Idle",
		&core.State[*core.MonitorContext]{
			Name:        "Idle",
			Transitions: map[string]string{"notifyReq": "Waiting"},
			Ignore:      []string{"notifyAck"},
		},
		&core.State[*core.MonitorContext]{
			Name:        "Waiting",
			Hot:         true,
			Transitions: map[string]string{"notifyAck": "Idle"},
			Ignore:      []string{"notifyReq"},
		},
	)
	return &core.MonitorSM{SM: sm}
}

// The harness's size: the number of sequential client requests (the
// liveness bug needs at least two) and of storage nodes.
const (
	clientRequests = 2
	storageNodes   = 3
)

// ScenarioConfig parameterizes the harness.
type ScenarioConfig struct {
	Server Config
	// Monitors selects the registered specifications (default both).
	Monitors Monitors
	// DurableNodes routes every storage-node append through the
	// crash-consistency plane (Persist + Sync per value), adds a bounded
	// crash injector over the storage nodes with Restart-based recovery,
	// and registers the NodeDurability oracle. The scenario gains a crash
	// and torn-crash fault budget; the default scenario is untouched.
	DurableNodes bool
}

func (sc ScenarioConfig) withDefaults() ScenarioConfig {
	if sc.Monitors == 0 {
		sc.Monitors = WithSafety | WithLiveness
	}
	return sc
}

// Scenario builds the systematic test of Figure 2 for the given
// configuration.
func Scenario(sc ScenarioConfig) core.Test {
	sc = sc.withDefaults()
	name := "replsys"
	if sc.DurableNodes {
		name = "replsys-durable"
	}
	t := core.Test{
		Name: name,
		Entry: func(ctx *core.Context) {
			reports := &syncReports{}
			srv := &serverMachine{mons: sc.Monitors, route: make(map[NodeID]core.MachineID), reports: reports}
			serverID := ctx.CreateMachine(srv, "Server")

			var nodeIDs []NodeID
			var snMachines []*storageNodeMachine
			snByID := make(map[core.MachineID]*storageNodeMachine)
			var snIDs []core.MachineID
			for i := 0; i < storageNodes; i++ {
				snm := &storageNodeMachine{serverID: serverID, mons: sc.Monitors, durable: sc.DurableNodes, reports: reports}
				id := ctx.CreateMachine(snm, fmt.Sprintf("SN%d", i))
				snm.node = NodeID(id)
				srv.route[NodeID(id)] = id
				nodeIDs = append(nodeIDs, NodeID(id))
				snMachines = append(snMachines, snm)
				snByID[id] = snm
				snIDs = append(snIDs, id)
			}
			srv.server = NewServer(sc.Server, srv, nodeIDs)

			// The sync timers are runtime timers (Figure 9, hoisted into
			// the core fault plane): the scheduler decides at every
			// opportunity whether a tick fires, recorded as DecisionTimer.
			for i, snm := range snMachines {
				ctx.StartTimer(fmt.Sprintf("Timer%d", i), srv.route[snm.node], timerTick{})
			}

			if sc.DurableNodes {
				ctx.CreateMachine(&core.FaultInjector{
					Candidates: func() []core.MachineID { return snIDs },
					OnCrash:    restartRecovered(snByID),
					Offers:     4 * clientRequests * storageNodes,
				}, "Injector")
			}

			client := &clientMachine{serverID: serverID}
			clientID := ctx.CreateMachine(client, "Client")
			client.node = NodeID(clientID)
			srv.route[NodeID(clientID)] = clientID
			// All routes are wired; release the client.
			ctx.SendLast(clientID, core.Signal("start"))
		},
	}
	if sc.DurableNodes {
		t.Faults = core.Faults{MaxCrashes: 1, MaxTornCrashes: 1}
		t.Monitors = append(t.Monitors, func() core.Monitor {
			return &durabilityMonitor{nodes: make(map[NodeID]*nodeDurState)}
		})
	}
	if sc.Monitors&WithSafety != 0 {
		t.Monitors = append(t.Monitors, newSafetyMonitor(sc.Server.target()))
	}
	if sc.Monitors&WithLiveness != 0 {
		t.Monitors = append(t.Monitors, newLivenessMonitor)
	}
	return t
}
