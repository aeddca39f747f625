package core

import (
	"flag"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// updateMachineLifecycle rewrites testdata/machine_lifecycle.json from the
// current tree. The file pins what an ordinary machine's life looks like
// from outside — decisions, step counts, fingerprint mixes, log lines, bug
// attribution, divergence errors — around the places where the machine holds
// no handler frame: never started, waiting at the top of its event loop,
// just dead. It was recorded while every machine still owned one coroutine
// from its first step to its death; a change to which stack hosts a handler
// must leave it byte-identical. Regenerate only with a change that means to
// move a machine's behaviour.
var updateMachineLifecycle = flag.Bool("update-machine-lifecycle", false, "rewrite testdata/machine_lifecycle.json from this tree")

// stagingStore stages two writes for every "write" it handles, never syncs
// them, and reports to its parent; with wait set the handler then blocks in
// a Receive nobody answers. Its deferred log line shows in the replay log
// where the handler's frame went away: at its return, or when a reaper
// unwound it.
type stagingStore struct {
	parent MachineID
	wait   bool
}

func (s *stagingStore) Init(*Context) {}
func (s *stagingStore) Handle(ctx *Context, ev Event) {
	defer ctx.Logf("write handler left")
	ctx.Persist("a", []byte("1"))
	ctx.Persist("b", []byte("2"))
	ctx.Send(s.parent, Signal("staged"))
	if s.wait {
		ctx.Receive("never")
	}
}

// recoveringStore reports which staged writes its predecessor's crash let
// through, in the log and — so the fingerprint sees it — in the event name.
type recoveringStore struct{ parent MachineID }

func (s *recoveringStore) Init(ctx *Context) {
	rec := ctx.Recover()
	ctx.Logf("recovered keys %v", slices.Sorted(maps.Keys(rec)))
	ctx.Send(s.parent, Signal(fmt.Sprintf("recovered%d", len(rec))))
}
func (s *recoveringStore) Handle(*Context, Event) {}

// crashStagedTest: the entry machine (0) has a store (1) stage two writes,
// crashes it under a torn-crash budget and restarts it. Where the store is
// when the crash lands — at its loop top, parked mid-handler at a Send, or
// (wait) blocked in Receive — is up to the schedule; the FaultPersist
// decision must sit right after the crash either way.
func crashStagedTest(wait bool) Test {
	name := "machine-crash-staged"
	if wait {
		name = "machine-crash-in-receive"
	}
	return Test{
		Name:   name,
		Faults: Faults{MaxTornCrashes: 1},
		Entry: func(ctx *Context) {
			store := ctx.CreateMachine(&stagingStore{parent: ctx.ID(), wait: wait}, "store")
			ctx.Send(store, Signal("write"))
			ctx.Receive("staged")
			ctx.Crash(store)
			ctx.Restart(store, &recoveringStore{parent: ctx.ID()})
			ctx.ReceiveWhere("recovery report", func(ev Event) bool { return strings.HasPrefix(ev.Name(), "recovered") })
		},
	}
}

// quietMachine handles every event without reaching a scheduling point.
func quietMachine() *FuncMachine { return &FuncMachine{OnEvent: func(*Context, Event) {}} }

// chooserTest: a quiet machine (1), a chooser (2) whose handler draws an
// integer and halts, and a quiet sink (3), each sent one event. The script
// runs the quiet machine's handler right before the chooser's, and the sink
// is what the iteration after the chooser's death picks.
func chooserTest() Test {
	return Test{
		Name: "machine-chooser",
		Entry: func(ctx *Context) {
			quiet := ctx.CreateMachine(quietMachine(), "quiet")
			chooser := ctx.CreateMachine(&FuncMachine{OnEvent: func(ctx *Context, ev Event) {
				ctx.RandomInt(4)
				ctx.Halt()
			}}, "chooser")
			sink := ctx.CreateMachine(quietMachine(), "sink")
			for _, id := range []MachineID{quiet, chooser, sink} {
				ctx.Send(id, Signal("go"))
			}
		},
	}
}

// bendChooser perturbs the chooser's draw (raised inside its handler), the
// schedule decision of the iteration after its death, and cuts the trace
// right before that decision.
func bendChooser(ds []Decision) [][]Decision {
	i := slices.IndexFunc(ds, func(d Decision) bool { return d.Kind == DecisionInt })
	draw, next := slices.Clone(ds), slices.Clone(ds)
	draw[i].Int = 9
	next[i+1].Machine += 100
	return [][]Decision{draw, next, slices.Clone(ds[:i+1])}
}

func machineLifecycleCases() []lifecycleCase {
	return []lifecycleCase{
		{
			// The store has returned from its handler: it is crashed at its
			// loop top with both writes staged; one survives.
			name: "crash-at-loop-top-with-staged-writes", test: crashStagedTest(false), maxSteps: 80,
			script: scriptScheduler{picks: []MachineID{0, 0, 1, 1, 1, 1, 1}, persists: []int{1}},
		},
		{
			// One store step fewer: it is parked at its Send's scheduling
			// point, so the reaper unwinds a live handler frame; both survive.
			name: "crash-mid-handler-with-staged-writes", test: crashStagedTest(false), maxSteps: 80,
			script:       scriptScheduler{picks: []MachineID{0, 0, 1, 1, 1, 1}, persists: []int{2}},
			scriptedOnly: true,
		},
		{
			name: "crash-inside-receive-with-staged-writes", test: crashStagedTest(true), maxSteps: 80,
			script: scriptScheduler{picks: []MachineID{0, 0, 1, 1, 1, 1, 1}, persists: []int{1}},
		},
		{
			// The halting machine (2) dies while its peer (1) waits at its
			// loop top with the ping queued: the iteration after the death
			// picks a machine that holds no frame.
			name: "halt-then-loop-top-successor",
			test: Test{
				Name: "machine-halt-successor",
				Entry: func(ctx *Context) {
					peer := ctx.CreateMachine(&echoMachine{}, "peer")
					parent := ctx.ID()
					halter := ctx.CreateMachine(&FuncMachine{OnEvent: func(ctx *Context, ev Event) {
						ctx.Send(peer, pingEvent{From: parent})
						ctx.Halt()
					}}, "halter")
					ctx.Send(halter, Signal("go"))
					ctx.Receive("echo")
				},
			},
			maxSteps: 80,
			script:   scriptScheduler{picks: []MachineID{0, 0, 0, 1, 2, 2, 2, 1}},
		},
		{
			// The node answered one ping and went back to its loop top before
			// it was crashed; its ID is restarted and answers another.
			name: "restart-after-loop-top-death",
			test: Test{
				Name: "machine-restart",
				Entry: func(ctx *Context) {
					n := ctx.CreateMachine(&echoMachine{}, "n")
					ctx.Send(n, pingEvent{From: ctx.ID()})
					ctx.Receive("echo")
					ctx.Crash(n)
					ctx.Restart(n, &echoMachine{})
					ctx.Send(n, pingEvent{From: ctx.ID()})
					ctx.Receive("echo")
				},
			},
			maxSteps: 80,
			script:   scriptScheduler{picks: []MachineID{0, 0, 1, 1, 1}},
		},
		{
			// The sink reaches its loop top first; two deferred "work"
			// events leave it disabled with a non-empty inbox until "open".
			name: "deferrer-with-only-deferred-events",
			test: Test{
				Name: "machine-deferrer",
				Entry: func(ctx *Context) {
					sink := ctx.CreateMachine(&deferringSink{}, "sink")
					ctx.Send(sink, Signal("work"))
					ctx.Send(sink, Signal("work"))
					ctx.Send(sink, Signal("open"))
					ctx.Send(sink, Signal("work"))
				},
			},
			maxSteps: 80,
			script:   scriptScheduler{picks: []MachineID{0, 1}},
		},
		{
			// The bomb's handler runs right after the quiet machine's
			// returned; the report must name the bomb and its step.
			name: "panic-after-another-machines-handler",
			test: Test{
				Name: "machine-panic",
				Entry: func(ctx *Context) {
					quiet := ctx.CreateMachine(quietMachine(), "quiet")
					bomb := ctx.CreateMachine(&FuncMachine{OnEvent: func(*Context, Event) { panic("boom") }}, "bomb")
					ctx.Send(quiet, Signal("go"))
					ctx.Send(bomb, Signal("go"))
				},
			},
			maxSteps:   80,
			script:     scriptScheduler{picks: []MachineID{0, 0, 0, 0, 0, 1, 2, 1, 2}},
			pinBugSite: true,
		},
		{
			name: "divergence-in-handler-and-after-death", test: chooserTest(), maxSteps: 80,
			script: scriptScheduler{picks: []MachineID{0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 1, 2, 3}},
			bends:  bendChooser,
		},
		{
			// Entry and sink only ever wait at their loop tops between
			// handlers that never yield; the timer runs the execution into
			// the bound.
			name: "bound-with-every-machine-at-its-loop-top",
			test: Test{
				Name: "machine-bound",
				Entry: func(ctx *Context) {
					sink := ctx.CreateMachine(quietMachine(), "sink")
					ctx.StartTimer("T", sink, Signal("tick"))
				},
			},
			maxSteps: 40,
			script:   scriptScheduler{picks: []MachineID{0, 0, 0, 1}, fires: []bool{true, false, true, true}},
		},
		{
			name: "quiescence-with-every-machine-at-its-loop-top",
			test: Test{
				Name: "machine-quiesce",
				Entry: func(ctx *Context) {
					a := ctx.CreateMachine(quietMachine(), "a")
					b := ctx.CreateMachine(quietMachine(), "b")
					ctx.Send(a, Signal("go"))
					ctx.Send(b, Signal("go"))
					ctx.Send(a, Signal("go"))
				},
			},
			maxSteps: 80,
			script:   scriptScheduler{picks: []MachineID{0, 0, 0, 2, 1, 0, 0, 1, 2, 1}},
		},
	}
}

// TestMachineLifecycleMatchesGolden walks an ordinary machine's life around
// the points where it holds no handler frame — crashed at its loop top, mid-
// handler and inside Receive with staged writes and a torn-crash budget (the
// FaultPersist decision stays right after the crash), a Halt whose successor
// waits at its loop top, Restart after a loop-top death, a Deferrer with
// only deferred events queued, a panic and two replay divergences in
// handlers that follow another machine's, the step bound and quiescence with
// every machine at its loop top — and holds every observable to
// testdata/machine_lifecycle.json exactly as TestTimerLifecycleMatchesGolden
// does for the timer.
func TestMachineLifecycleMatchesGolden(t *testing.T) {
	matchLifecycleGolden(t, filepath.Join("testdata", "machine_lifecycle.json"), *updateMachineLifecycle, machineLifecycleCases())
}
