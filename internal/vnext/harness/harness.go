// Package harness is the systematic-test harness for the vNext extent
// manager (Figure 4): the real ExtentManager wrapped in a machine with a
// modeled network engine, modeled extent nodes, nondeterministic timers, a
// testing driver that injects failures, and the RepairMonitor liveness
// specification.
package harness

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/vnext"
)

// msgEvent carries a vNext protocol message between harness machines; its
// event name is the message kind, so state-machine handlers dispatch on it.
type msgEvent struct{ Msg vnext.Message }

func (e msgEvent) Name() string { return e.Msg.Kind() }

// routeEvent asks the testing driver to dispatch a message to an EN — the
// relay path of the modeled network engine (Figure 7).
type routeEvent struct {
	Dst vnext.NodeID
	Msg vnext.Message
}

func (routeEvent) Name() string { return "Route" }

// Tick event names (the modeled timers of §3.3).
const (
	tickExpiration = "TickExpiration"
	tickRepair     = "TickRepair"
	tickHeartbeat  = "TickHeartbeat"
	tickSync       = "TickSync"
)

// enFailedEvent notifies the RepairMonitor that an EN failed: every
// replica it held is gone.
type enFailedEvent struct{ Node vnext.NodeID }

func (enFailedEvent) Name() string { return "ENFailed" }

// extentRepairedEvent notifies the RepairMonitor that an EN now holds a
// replica of the extent.
type extentRepairedEvent struct {
	Node   vnext.NodeID
	Extent vnext.ExtentID
}

func (extentRepairedEvent) Name() string { return "ExtentRepaired" }

// RepairMonitorName identifies the liveness monitor (§3.5).
const RepairMonitorName = "RepairMonitor"

// TheExtent is the first extent id; scenarios with E extents use ids
// TheExtent..TheExtent+E-1.
const TheExtent vnext.ExtentID = 1

// managerMachine wraps the real ExtentManager (Figure 5). It implements
// vnext.NetworkEngine so the manager's outbound repair requests are
// relayed through the driver instead of a real network.
type managerMachine struct {
	core.SMachine
	mgr      *vnext.ExtentManager
	ctx      *core.Context
	driverID core.MachineID
}

// SendMessage implements vnext.NetworkEngine (the ModelNetEngine of
// Figure 7): intercept and relay through the testing driver.
func (m *managerMachine) SendMessage(dst vnext.NodeID, msg vnext.Message) {
	m.ctx.Send(m.driverID, routeEvent{Dst: dst, Msg: msg})
}

func newManagerMachine(cfg vnext.Config, driverID core.MachineID) *managerMachine {
	m := &managerMachine{driverID: driverID}
	m.mgr = vnext.NewExtentManager(cfg, m)
	m.mgr.DisableTimer() // replace internal timers with modeled ones (§3.3)
	deliver := func(ctx *core.Context, ev core.Event) {
		m.ctx = ctx
		m.mgr.ProcessMessage(ev.(msgEvent).Msg)
	}
	m.SM = core.NewStateMachine[*core.Context]("ExtentManager", "Serving",
		&core.State[*core.Context]{
			Name: "Serving",
			On: map[string]func(*core.Context, core.Event){
				"Heartbeat":  deliver,
				"SyncReport": deliver,
				tickExpiration: func(ctx *core.Context, _ core.Event) {
					m.ctx = ctx
					m.mgr.ProcessExpirationTick()
				},
				tickRepair: func(ctx *core.Context, _ core.Event) {
					m.ctx = ctx
					m.mgr.ProcessExtentRepair()
				},
			},
		},
	)
	return m
}

// enMachine is the modeled extent node (Figure 8): it reuses the real
// ExtentCenter for bookkeeping, repairs extents from replicas, and sends
// heartbeats and sync reports when its timers fire.
type enMachine struct {
	core.SMachine
	node      vnext.NodeID
	mgrID     core.MachineID
	driverID  core.MachineID
	store     *vnext.ExtentCenter
	notifyMon bool
}

func newENMachine(node vnext.NodeID, mgrID, driverID core.MachineID, initial []vnext.ExtentID) *enMachine {
	en := &enMachine{node: node, mgrID: mgrID, driverID: driverID, store: vnext.NewExtentCenter(), notifyMon: true}
	for _, e := range initial {
		en.store.Add(e, node)
	}
	en.SM = core.NewStateMachine[*core.Context]("ExtentNode", "Active",
		&core.State[*core.Context]{
			Name: "Active",
			On: map[string]func(*core.Context, core.Event){
				"RepairRequest": en.onRepairRequest,
				"CopyRequest":   en.onCopyRequest,
				"CopyResponse":  en.onCopyResponse,
				tickHeartbeat: func(ctx *core.Context, _ core.Event) {
					ctx.SendLast(en.mgrID, msgEvent{Msg: vnext.Heartbeat{Node: en.node}})
				},
				tickSync: func(ctx *core.Context, _ core.Event) {
					report := vnext.SyncReport{Node: en.node, Extents: en.store.ExtentsOf(en.node)}
					ctx.SendLast(en.mgrID, msgEvent{Msg: report})
				},
			},
		},
	)
	return en
}

// onRepairRequest starts an extent copy from a nondeterministically chosen
// source replica.
func (en *enMachine) onRepairRequest(ctx *core.Context, ev core.Event) {
	req := ev.(msgEvent).Msg.(vnext.RepairRequest)
	if en.store.Has(req.Extent, en.node) || len(req.Sources) == 0 {
		return // already repaired, or nothing to copy from
	}
	src := req.Sources[ctx.RandomInt(len(req.Sources))]
	ctx.SendLast(en.driverID, routeEvent{Dst: src, Msg: vnext.CopyRequest{Extent: req.Extent, Requester: en.node}})
}

// onCopyRequest answers with a copy success iff this EN holds a replica.
func (en *enMachine) onCopyRequest(ctx *core.Context, ev core.Event) {
	req := ev.(msgEvent).Msg.(vnext.CopyRequest)
	resp := vnext.CopyResponse{Extent: req.Extent, Source: en.node, OK: en.store.Has(req.Extent, en.node)}
	ctx.SendLast(en.driverID, routeEvent{Dst: req.Requester, Msg: resp})
}

// onCopyResponse records the repaired replica and notifies the monitor;
// the extent manager learns of it lazily via the next sync report.
func (en *enMachine) onCopyResponse(ctx *core.Context, ev core.Event) {
	resp := ev.(msgEvent).Msg.(vnext.CopyResponse)
	if !resp.OK || en.store.Has(resp.Extent, en.node) {
		return
	}
	en.store.Add(resp.Extent, en.node)
	if en.notifyMon {
		ctx.Monitor(RepairMonitorName, extentRepairedEvent{Node: en.node, Extent: resp.Extent})
	}
}

// Scenario selects one of the two testing scenarios of §3.4.
type Scenario int

const (
	// ScenarioReplicate launches one manager and three ENs with a single
	// under-replicated extent and waits for it to reach the target.
	ScenarioReplicate Scenario = iota
	// ScenarioFailAndRepair starts fully replicated, fails a
	// nondeterministically chosen EN, launches a fresh EN and waits for
	// the missing replica to be repaired — the scenario that exposes the
	// §3.6 liveness bug.
	ScenarioFailAndRepair
)

// HarnessConfig parameterizes the vNext harness.
type HarnessConfig struct {
	Manager  vnext.Config
	Scenario Scenario
	// Nodes is the number of initial extent nodes (default 3).
	Nodes int
	// Extents is the number of extents under management (default 1; the
	// paper's stress tests manage many extents at once).
	Extents int
	// DropMessages, when set, declares a delivery-fault budget for the
	// routed network (see Faults): the scheduler may drop or duplicate a
	// bounded number of routed messages per execution, emulating message
	// loss (§3.1 mentions this as an option of the modeled network
	// engine). The routing path always goes through SendUnreliable, so a
	// caller can also enable delivery faults purely via Options.Faults.
	DropMessages bool
}

func (hc HarnessConfig) nodes() int {
	if hc.Nodes > 0 {
		return hc.Nodes
	}
	return 3
}

// extents lists the extent ids under management.
func (hc HarnessConfig) extents() []vnext.ExtentID {
	n := hc.Extents
	if n <= 0 {
		n = 1
	}
	out := make([]vnext.ExtentID, n)
	for i := range out {
		out[i] = TheExtent + vnext.ExtentID(i)
	}
	return out
}

// driverMachine drives the testing scenarios (Figure 10): it builds the
// system and relays routed messages over the (possibly unreliable)
// modeled network. Failure injection is no longer the driver's job — the
// fail-and-repair scenario registers a core.FaultInjector over the live
// extent nodes, budgeted by the run's Faults.MaxCrashes.
type driverMachine struct {
	core.SMachine
	cfg   HarnessConfig
	mm    *managerMachine
	mgrID core.MachineID
	// selfID is the driver's own machine id: launchEN runs both from the
	// driver's setup and from the injector's OnCrash, and the ENs' route
	// relay must always be the driver.
	selfID   core.MachineID
	route    map[vnext.NodeID]core.MachineID
	nodeOf   map[core.MachineID]vnext.NodeID
	enIDs    []core.MachineID
	nextNode vnext.NodeID
}

func newDriverMachine(cfg HarnessConfig) *driverMachine {
	d := &driverMachine{
		cfg:    cfg,
		route:  make(map[vnext.NodeID]core.MachineID),
		nodeOf: make(map[core.MachineID]vnext.NodeID),
	}
	d.SM = core.NewStateMachine[*core.Context]("TestingDriver", "Driving",
		&core.State[*core.Context]{
			Name:    "Driving",
			OnEntry: d.setup,
			On: map[string]func(*core.Context, core.Event){
				"Route": d.onRoute,
			},
		},
	)
	return d
}

// setup builds the system under test: manager, ENs, their timers, and —
// for the fail-and-repair scenario — the shared fault injector.
func (d *driverMachine) setup(ctx *core.Context) {
	d.selfID = ctx.ID()
	d.mm = newManagerMachine(d.cfg.Manager, ctx.ID())
	mgrID := ctx.CreateMachine(d.mm, "ExtentManager")
	d.mgrID = mgrID

	for i := 0; i < d.cfg.nodes(); i++ {
		d.nextNode++
		node := d.nextNode
		var initial []vnext.ExtentID
		switch d.cfg.Scenario {
		case ScenarioReplicate:
			if i == 0 {
				initial = d.cfg.extents()
			}
		case ScenarioFailAndRepair:
			initial = d.cfg.extents()
		}
		d.launchEN(ctx, mgrID, node, initial)
		for _, e := range initial {
			ctx.Monitor(RepairMonitorName, extentRepairedEvent{Node: node, Extent: e})
		}
	}
	ctx.StartTimer("Timer-expiration", mgrID, core.Signal(tickExpiration))
	ctx.StartTimer("Timer-repair", mgrID, core.Signal(tickRepair))

	if d.cfg.Scenario == ScenarioFailAndRepair {
		// The scheduler chooses when — and which — live EN crashes,
		// within the run's crash budget (the scenario declares 1). On a
		// crash the monitor learns the node's replicas are gone and a
		// fresh EN joins, exactly Figure 10's failure logic.
		ctx.CreateMachine(&core.FaultInjector{
			Candidates: func() []core.MachineID {
				return append([]core.MachineID(nil), d.enIDs...)
			},
			OnCrash: func(ctx *core.Context, victim core.MachineID) {
				ctx.Monitor(RepairMonitorName, enFailedEvent{Node: d.nodeOf[victim]})
				d.nextNode++
				d.launchEN(ctx, d.mgrID, d.nextNode, nil)
			},
		}, "Injector")
	}
}

// launchEN creates an EN machine with its heartbeat and sync timers and
// registers it in the routing table.
func (d *driverMachine) launchEN(ctx *core.Context, mgrID core.MachineID, node vnext.NodeID, initial []vnext.ExtentID) {
	en := newENMachine(node, mgrID, d.selfID, initial)
	id := ctx.CreateMachine(en, fmt.Sprintf("EN%d", node))
	d.route[node] = id
	d.nodeOf[id] = node
	d.enIDs = append(d.enIDs, id)
	ctx.StartTimer(fmt.Sprintf("Timer-hb-%d", node), id, core.Signal(tickHeartbeat))
	ctx.StartTimer(fmt.Sprintf("Timer-sync-%d", node), id, core.Signal(tickSync))
}

// onRoute dispatches a routed message to its destination EN over the
// unreliable modeled network: with a delivery-fault budget (the
// DropMessages configuration declares one) the scheduler may drop or
// duplicate it, recorded as DecisionDeliver.
func (d *driverMachine) onRoute(ctx *core.Context, ev core.Event) {
	r := ev.(routeEvent)
	id, ok := d.route[r.Dst]
	ctx.Assert(ok, "route to unknown EN %d", r.Dst)
	ctx.SendUnreliable(id, msgEvent{Msg: r.Msg})
}

// newRepairMonitor builds the RepairMonitor of Figure 11, generalized to
// many extents: hot while any tracked extent has fewer live replicas than
// the target.
func newRepairMonitor(target int) func() core.Monitor {
	return func() core.Monitor {
		holders := make(map[vnext.ExtentID]map[vnext.NodeID]bool)
		atTarget := func() bool {
			for _, nodes := range holders {
				if len(nodes) < target {
					return false
				}
			}
			return true
		}
		repaired := func(ev core.Event) {
			e := ev.(extentRepairedEvent)
			if holders[e.Extent] == nil {
				holders[e.Extent] = make(map[vnext.NodeID]bool)
			}
			holders[e.Extent][e.Node] = true
		}
		failed := func(ev core.Event) {
			node := ev.(enFailedEvent).Node
			for _, nodes := range holders {
				delete(nodes, node)
			}
		}
		var sm *core.StateMachine[*core.MonitorContext]
		sm = core.NewStateMachine[*core.MonitorContext](RepairMonitorName, "Repairing",
			&core.State[*core.MonitorContext]{
				Name: "Repairing",
				Hot:  true,
				On: map[string]func(*core.MonitorContext, core.Event){
					"ExtentRepaired": func(mc *core.MonitorContext, ev core.Event) {
						repaired(ev)
						if atTarget() {
							sm.Goto(mc, "Repaired")
						}
					},
					"ENFailed": func(mc *core.MonitorContext, ev core.Event) {
						failed(ev)
					},
				},
			},
			&core.State[*core.MonitorContext]{
				Name: "Repaired",
				On: map[string]func(*core.MonitorContext, core.Event){
					"ExtentRepaired": func(mc *core.MonitorContext, ev core.Event) {
						repaired(ev)
					},
					"ENFailed": func(mc *core.MonitorContext, ev core.Event) {
						failed(ev)
						if !atTarget() {
							sm.Goto(mc, "Repairing")
						}
					},
				},
			},
		)
		return &core.MonitorSM{SM: sm}
	}
}

// Faults returns the fault budget the configured scenario is built for:
// one EN crash for the fail-and-repair scenario, and a small drop/
// duplicate allowance on the routed network when DropMessages is set.
// Test declares it on the core.Test, so callers get it by default and may
// still override via Options.Faults.
func (hc HarnessConfig) Faults() core.Faults {
	var f core.Faults
	if hc.Scenario == ScenarioFailAndRepair {
		f.MaxCrashes = 1
	}
	if hc.DropMessages {
		f.MaxDrops = 3
		f.MaxDuplicates = 2
	}
	return f
}

// Test builds the systematic test for the configured scenario.
func Test(hc HarnessConfig) core.Test {
	target := 3
	if hc.Manager.ReplicaTarget > 0 {
		target = hc.Manager.ReplicaTarget
	}
	return core.Test{
		Name: "vnext-extent-repair",
		Entry: func(ctx *core.Context) {
			ctx.CreateMachine(newDriverMachine(hc), "TestingDriver")
		},
		Monitors: []func() core.Monitor{newRepairMonitor(target)},
		Faults:   hc.Faults(),
	}
}

// Metadata reports the static shape of the harness machines for Table 1
// accounting. The timer row describes the core runtime timer (one state,
// one firing handler), which replaced the harness's hand-rolled timer
// machine when fault injection moved into the runtime.
func Metadata() []core.MachineStats {
	mm := newManagerMachine(vnext.Config{}, 0)
	en := newENMachine(1, 0, 0, nil)
	dm := newDriverMachine(HarnessConfig{})
	mon := newRepairMonitor(3)().(*core.MonitorSM)
	return []core.MachineStats{
		mm.SM.Stats(),
		en.SM.Stats(),
		{Machine: "Timer", States: 1, Transitions: 0, Handlers: 1},
		dm.SM.Stats(),
		mon.SM.Stats(),
	}
}
