package fabric

import (
	"github.com/gostorm/gostorm/internal/core"
)

// This file is the CScale analog of §5: a big-data stream-processing
// pipeline built from services chained by RPC. The paper converted
// CScale's RPCs into runtime-controlled events to close the system; here
// the pipeline stages are machines whose "RPCs" are events, and the seeded
// defect is the NullReferenceException analog the paper found: a stage
// that dereferences uninitialized state when a data message races its
// open-channel control message.

// PipelineConfig parameterizes the pipeline scenario.
type PipelineConfig struct {
	// BugNilState re-introduces the crash: the transform stage indexes
	// its aggregation map without guarding against data arriving before
	// the Open control message that allocates it.
	BugNilState bool
}

// PipelineMonitor checks that the pipeline eventually drains: hot until
// the sink has verified the aggregate.
const PipelineMonitor = "PipelineProgress"

// Pipeline events.

type openEvent struct{}

func (openEvent) Name() string { return "Open" }

type dataEvent struct {
	Key   string
	Value int64
}

func (dataEvent) Name() string { return "Data" }

// flushEvent ends the stream; Total carries the sum of all records the
// source actually produced, so the sink can audit the aggregation.
type flushEvent struct{ Total int64 }

func (flushEvent) Name() string { return "Flush" }

type outputEvent struct{ Total int64 }

func (outputEvent) Name() string { return "Output" }

// notifyEmitted drives the pipeline progress monitor.
type notifyEmitted struct{}

func (notifyEmitted) Name() string { return "notifyEmitted" }

// sourceMachine feeds records into the transform stage.
type sourceMachine struct {
	transform core.MachineID
	items     int
}

func (s *sourceMachine) Init(*core.Context) {}

func (s *sourceMachine) Handle(ctx *core.Context, ev core.Event) {
	if ev.Name() != "start" {
		return
	}
	keys := []string{"x", "y"}
	total := int64(0)
	for i := 0; i < s.items; i++ {
		v := int64(1 + ctx.RandomInt(5))
		total += v
		ctx.Send(s.transform, dataEvent{Key: keys[ctx.RandomInt(len(keys))], Value: v})
	}
	ctx.SendLast(s.transform, flushEvent{Total: total})
}

// transformMachine aggregates records per key and emits totals on flush.
// Its aggregation state is allocated by the Open control message — and
// with PipelineConfig.BugNilState the Data handler trusts that Open always
// arrives first, which the scheduler happily refutes.
type transformMachine struct {
	sink   core.MachineID
	bug    bool
	opened bool
	totals map[string]int64
	// preOpen buffers records that arrive before Open (the fix).
	preOpen []dataEvent
}

func (t *transformMachine) Init(*core.Context) {}

func (t *transformMachine) Handle(ctx *core.Context, ev core.Event) {
	switch e := ev.(type) {
	case openEvent:
		if t.totals == nil {
			t.totals = make(map[string]int64)
		}
		t.opened = true
		for _, d := range t.preOpen {
			t.totals[d.Key] += d.Value
		}
		t.preOpen = nil
	case dataEvent:
		if t.bug {
			// BUG: a Data racing Open dereferences the nil map — the
			// NullReferenceException analog (the nil-map write panics,
			// like the field dereference in the paper's CScale bug).
			t.totals[e.Key] += e.Value
			return
		}
		if !t.opened {
			t.preOpen = append(t.preOpen, e)
			return
		}
		t.totals[e.Key] += e.Value
	case flushEvent:
		if !t.opened {
			// The stream cannot end before the channel opened; re-queue
			// the flush behind the pending Open.
			ctx.SendLast(ctx.ID(), e)
			return
		}
		for _, k := range []string{"x", "y"} {
			if v, ok := t.totals[k]; ok {
				ctx.Send(t.sink, outputEvent{Total: v})
			}
		}
		ctx.SendLast(t.sink, e)
	}
}

// sinkMachine collects outputs and audits the aggregate on flush.
type sinkMachine struct {
	got int64
}

func (s *sinkMachine) Init(*core.Context) {}

func (s *sinkMachine) Handle(ctx *core.Context, ev core.Event) {
	switch e := ev.(type) {
	case outputEvent:
		s.got += e.Total
	case flushEvent:
		ctx.Assert(s.got == e.Total,
			"sink aggregated %d but the source produced %d: records were lost or duplicated", s.got, e.Total)
		ctx.Monitor(PipelineMonitor, notifyEmitted{})
	}
}

// newPipelineMonitor builds the drain-progress liveness monitor (fresh per
// execution).
func newPipelineMonitor() core.Monitor {
	sm := core.NewStateMachine[*core.MonitorContext](PipelineMonitor, "Flowing",
		&core.State[*core.MonitorContext]{
			Name:        "Flowing",
			Hot:         true,
			Transitions: map[string]string{"notifyEmitted": "Drained"},
		},
		&core.State[*core.MonitorContext]{
			Name:   "Drained",
			Ignore: []string{"notifyEmitted"},
		},
	)
	return &core.MonitorSM{SM: sm}
}

// controllerMachine is the control plane: it opens the downstream stage
// when scheduled. Running it concurrently with the source is what lets
// data outrun the open message — the race the paper's CScale bug needed.
type controllerMachine struct {
	transform core.MachineID
}

func (c *controllerMachine) Init(*core.Context) {}

func (c *controllerMachine) Handle(ctx *core.Context, ev core.Event) {
	if ev.Name() == "start" {
		ctx.SendLast(c.transform, openEvent{})
	}
}

// PipelineScenario builds the pipeline test: the control plane opens the
// stages while the source starts pushing records; the scheduler decides
// whether data can outrun the open control message.
func PipelineScenario(pc PipelineConfig) core.Test {
	return core.Test{
		Name: "fabric-pipeline",
		Entry: func(ctx *core.Context) {
			sinkID := ctx.CreateMachine(&sinkMachine{}, "Sink")
			trID := ctx.CreateMachine(&transformMachine{sink: sinkID, bug: pc.BugNilState}, "Transform")
			srcID := ctx.CreateMachine(&sourceMachine{transform: trID, items: 3}, "Source")
			ctrlID := ctx.CreateMachine(&controllerMachine{transform: trID}, "Controller")
			ctx.Send(ctrlID, core.Signal("start"))
			ctx.SendLast(srcID, core.Signal("start"))
		},
		Monitors: []func() core.Monitor{newPipelineMonitor},
	}
}
