package replsys

import (
	"strings"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

// --- DurableNodes scenario: crash-consistency plane in the §2 harness ---

// TestDurableNodesStayClean: the fixed server with write-ahead durable
// storage nodes survives crash + torn-crash injection — every synced
// value is recovered and the server's re-replication path heals whatever
// the crash lost.
func TestDurableNodesStayClean(t *testing.T) {
	for _, sched := range []string{"random", "pct"} {
		for seed := int64(1); seed <= 3; seed++ {
			test := Scenario(ScenarioConfig{
				Server:       Config{FixUniqueReplicas: true, FixCounterReset: true},
				Monitors:     WithSafety,
				DurableNodes: true,
			})
			res := core.MustExplore(test, core.Options{
				Scheduler: sched, Iterations: 300, MaxSteps: 3000, Seed: seed, NoReplayLog: true,
			})
			if res.BugFound {
				t.Fatalf("%s seed %d: durable fixed system failed: %v", sched, seed, res.Report.Error())
			}
		}
	}
}

// TestDurableNodesStillFindSafetyBug: layering the crash plane under the
// storage nodes does not mask the paper's seeded safety bug.
func TestDurableNodesStillFindSafetyBug(t *testing.T) {
	test := Scenario(ScenarioConfig{Monitors: WithSafety, DurableNodes: true})
	res := core.MustExplore(test, core.Options{
		Scheduler: "random", Iterations: 5000, MaxSteps: 3000, Seed: 1, NoReplayLog: true,
	})
	if !res.BugFound || res.Report.Kind != core.SafetyBug {
		t.Fatalf("safety bug not found under durable nodes: %+v", res)
	}
}

// --- the oracle itself must not be vacuous ---

// lossyNode is a deliberately broken durable node: it persists each value
// and reports it synced to the oracle WITHOUT issuing the Sync barrier —
// the write-behind bug the durability oracle exists to catch. A crash
// that drops the staged writes then recovers fewer slots than were
// claimed synced.
type lossyNode struct {
	node NodeID
	seq  int
}

func (n *lossyNode) Init(*core.Context) {}

func (n *lossyNode) Handle(ctx *core.Context, ev core.Event) {
	if ev.Name() != "put" {
		return
	}
	seq := n.seq
	n.seq++
	ctx.Monitor(DurabilityMonitorName, notifyDurAppend{Node: n.node, Seq: seq, Val: seq + 1})
	ctx.Persist(logKey(seq), []byte{byte(seq + 1)})
	ctx.Monitor(DurabilityMonitorName, notifyDurSynced{Node: n.node, Seq: seq})
}

func TestDurabilityOracleCatchesUnsyncedLoss(t *testing.T) {
	test := core.Test{
		Name: "replsys-lossy-node",
		Entry: func(ctx *core.Context) {
			ln := &lossyNode{}
			id := ctx.CreateMachine(ln, "Lossy")
			ln.node = NodeID(id)
			ctx.CreateMachine(&core.FaultInjector{
				Candidates: func() []core.MachineID { return []core.MachineID{id} },
				OnCrash: restartRecovered(map[core.MachineID]*storageNodeMachine{
					id: {node: ln.node, durable: true},
				}),
				Offers: 8,
			}, "Injector")
			for i := 0; i < 3; i++ {
				ctx.Send(id, core.Signal("put"))
			}
		},
		Faults: core.Faults{MaxCrashes: 1, MaxTornCrashes: 1},
		Monitors: []func() core.Monitor{
			func() core.Monitor {
				return &durabilityMonitor{nodes: make(map[NodeID]*nodeDurState)}
			},
		},
	}
	res := core.MustExplore(test, core.Options{
		Scheduler: "random", Iterations: 500, MaxSteps: 2000, Seed: 1, NoReplayLog: true,
	})
	if !res.BugFound {
		t.Fatal("durability oracle did not catch the write-behind node")
	}
	if !strings.Contains(res.Report.Message, "recovery lost synced slots") {
		t.Fatalf("unexpected violation: %s", res.Report.Message)
	}
}
