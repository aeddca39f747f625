package replsys

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

// TestQueuedSyncReportsKeepTheirLogs pins why sync reports are pooled per
// execution and not kept one per node: a node answers three ticks, its log
// growing in between, before the server gets to run, so three reports sit
// in the server's inbox at once — three records, each with the log as it was
// when its tick was answered. Once the server has handed them back, the
// next tick reuses one. The lowest-first scheduler always runs the lowest
// enabled machine, which keeps the server (the highest ID) waiting.
func TestQueuedSyncReportsKeepTheirLogs(t *testing.T) {
	if registerLowestFirst != nil {
		t.Fatal(registerLowestFirst)
	}
	reports := &syncReports{}
	var got [][]int
	var records []*syncReport
	test := core.Test{
		Name: "queued-sync-reports",
		Entry: func(ctx *core.Context) {
			sn := &storageNodeMachine{reports: reports}
			node := ctx.CreateMachine(sn, "SN")
			sn.node = NodeID(node)
			sn.serverID = ctx.CreateMachine(&core.FuncMachine{OnEvent: func(ctx *core.Context, ev core.Event) {
				r := ev.(*syncReport)
				ctx.Assert(r.Node == sn.node, "report from node %d, want %d", r.Node, sn.node)
				got = append(got, append([]int(nil), r.Log...))
				records = append(records, r)
				if len(records) == 3 {
					for _, r := range records {
						reports.put(r)
					}
					ctx.Send(node, timerTick{})
				}
			}}, "Server")
			for val := 1; val <= 3; val++ {
				ctx.Send(node, msgEvent{Msg: ReplReq{Val: val}})
				ctx.Send(node, timerTick{})
			}
		},
	}
	res := core.MustExplore(test, core.Options{Scheduler: "lowest-first", Iterations: 1, MaxSteps: 100})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
	if want := [][]int{{1}, {1, 2}, {1, 2, 3}, {1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("server saw logs %v, want %v", got, want)
	}
	if records[0] == records[1] || records[1] == records[2] || records[0] == records[2] {
		t.Fatalf("three queued reports share a record: %p %p %p", records[0], records[1], records[2])
	}
	if r := records[3]; r != records[0] && r != records[1] && r != records[2] {
		t.Fatal("the tick after the server returned its records allocated a new one")
	}
}

// lowestFirst runs the lowest enabled machine and answers every other
// choice with its first outcome.
type lowestFirst struct{}

func (lowestFirst) Name() string                                        { return "lowest-first" }
func (lowestFirst) Prepare(int64, int)                                  {}
func (lowestFirst) NextMachine(enabled []core.MachineID) core.MachineID { return enabled[0] }
func (lowestFirst) NextBool() bool                                      { return false }
func (lowestFirst) NextInt(int) int                                     { return 0 }
func (lowestFirst) NextFault(core.FaultChoice) int                      { return 0 }

var registerLowestFirst = core.RegisterScheduler("lowest-first", func() core.Scheduler { return lowestFirst{} })

// maxMallocsPerExecution is the allocation budget of one clean replsys-fixed
// execution of 8 000 steps (pooled, one worker, random scheduler): wiring the
// scenario — machines, routes, monitors, timers — and a handful of report
// records. Before the tick reply was recycled it read 2 104; before the
// safety monitor counted stored replicas without sorting a fresh key slice
// on every Ack, 128. It reads 122.
const maxMallocsPerExecution = 125

// TestReplsysCleanExecutionAllocBudget is the regression gate on the
// harness's garbage: steps-replsys, the benchmark's step workload, is this
// execution, and a tick reply that boxes again shows up here first. It
// skips under -race, so of CI's whole-tree runs the plain `go test ./...`
// is the one that holds it.
func TestReplsysCleanExecutionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the test's behalf")
	}
	const iterations = 200
	test := Scenario(ScenarioConfig{Server: Config{FixUniqueReplicas: true, FixCounterReset: true}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := core.MustExplore(test, core.Options{
		Scheduler: "random", Workers: 1, Seed: 1, Iterations: iterations, MaxSteps: 8000, NoReplayLog: true,
	})
	runtime.ReadMemStats(&after)
	if res.BugFound || res.Executions != iterations {
		t.Fatalf("expected %d clean executions, got %v", iterations, res)
	}
	mallocs := float64(after.Mallocs-before.Mallocs) / iterations
	t.Logf("%.0f mallocs per clean execution (%.0f steps)", mallocs, float64(res.TotalSteps)/iterations)
	if mallocs > maxMallocsPerExecution {
		t.Errorf("%.0f mallocs per execution, budget %d", mallocs, maxMallocsPerExecution)
	}
}
