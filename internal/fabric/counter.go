package fabric

import (
	"github.com/gostorm/gostorm/internal/core"
)

// CounterService is the sample reliable user service: a replicated
// counter. Operations are "inc" (add an amount) and "get" (read).
type CounterService struct {
	value int64
}

// counterOp is the service's operation payload.
type counterOp struct {
	Kind   string // "inc" or "get"
	Amount int64
}

// NewCounterService returns an empty counter.
func NewCounterService() Service { return &CounterService{} }

// Apply implements Service.
func (c *CounterService) Apply(op any) any {
	o := op.(counterOp)
	if o.Kind == "inc" {
		c.value += o.Amount
	}
	return c.value
}

// Snapshot implements Service.
func (c *CounterService) Snapshot() any { return c.value }

// Restore implements Service (nil resets to the initial state).
func (c *CounterService) Restore(snapshot any) {
	if snapshot == nil {
		c.value = 0
		return
	}
	c.value = snapshot.(int64)
}

// Monitor names for the counter scenario.
const (
	// CounterSafetyMonitor checks that no acknowledged increment is ever
	// lost: a read must return exactly the sum of increments acknowledged
	// before it (the client is sequential).
	CounterSafetyMonitor = "CounterSafety"
	// CounterLivenessMonitor checks that every issued request is
	// eventually acknowledged (hot while a request is outstanding).
	CounterLivenessMonitor = "CounterProgress"
)

// notifyIssued / notifyAcked / notifyRead drive the counter monitors.
type notifyIssued struct{}

func (notifyIssued) Name() string { return "notifyIssued" }

type notifyAcked struct{ Amount int64 }

func (notifyAcked) Name() string { return "notifyAcked" }

type notifyRead struct{ Value int64 }

func (notifyRead) Name() string { return "notifyRead" }

// counterSafetyMonitor tracks the acknowledged sum and checks reads.
type counterSafetyMonitor struct {
	ackedSum int64
}

func (m *counterSafetyMonitor) Name() string              { return CounterSafetyMonitor }
func (m *counterSafetyMonitor) Init(*core.MonitorContext) {}
func (m *counterSafetyMonitor) Handle(mc *core.MonitorContext, ev core.Event) {
	switch e := ev.(type) {
	case notifyAcked:
		m.ackedSum += e.Amount
	case notifyRead:
		mc.Assert(e.Value == m.ackedSum,
			"read returned %d but %d was acknowledged: acknowledged data was lost (or invented) across failover",
			e.Value, m.ackedSum)
	}
}

// newCounterLivenessMonitor: hot from request issue to acknowledgement.
func newCounterLivenessMonitor() core.Monitor {
	sm := core.NewStateMachine[*core.MonitorContext](CounterLivenessMonitor, "Idle",
		&core.State[*core.MonitorContext]{
			Name:        "Idle",
			Transitions: map[string]string{"notifyIssued": "Waiting"},
			Ignore:      []string{"notifyAcked", "notifyRead"},
		},
		&core.State[*core.MonitorContext]{
			Name:        "Waiting",
			Hot:         true,
			Transitions: map[string]string{"notifyAcked": "Idle", "notifyRead": "Idle"},
			Ignore:      []string{"notifyIssued"},
		},
	)
	return &core.MonitorSM{SM: sm}
}

// clientMachine drives the counter service: a fixed number of increments
// (each awaited), then a read, asserting the read equals the acknowledged
// sum. It re-sends the outstanding request on every view change; the
// replica layer's deduplication makes retries safe.
type clientMachine struct {
	fm         core.MachineID
	increments int
	monitors   bool

	primary core.MachineID
	cseq    int64
}

func (c *clientMachine) Init(*core.Context) {}

func (c *clientMachine) Handle(ctx *core.Context, ev core.Event) {
	if ev.Name() != "start" {
		return
	}
	ctx.Send(c.fm, registerClient{Client: ctx.ID()})
	vc := ctx.Receive("ViewChange").(viewChange)
	c.primary = vc.Primary

	total := int64(0)
	for i := 0; i < c.increments; i++ {
		amount := int64(1 + ctx.RandomInt(5))
		c.request(ctx, counterOp{Kind: "inc", Amount: amount})
		total += amount
		if c.monitors {
			ctx.Monitor(CounterSafetyMonitor, notifyAcked{Amount: amount})
		}
	}
	value := c.request(ctx, counterOp{Kind: "get"})
	if c.monitors {
		ctx.Monitor(CounterSafetyMonitor, notifyRead{Value: value})
	}
	ctx.Logf("client done: acked %d, read %d", total, value)
}

// request performs one deduplicated, retried operation and returns its
// result.
func (c *clientMachine) request(ctx *core.Context, op counterOp) int64 {
	c.cseq++
	if c.monitors {
		ctx.Monitor(CounterLivenessMonitor, notifyIssued{})
	}
	ctx.Send(c.primary, clientReq{Client: ctx.ID(), CSeq: c.cseq, Op: op})
	for {
		ev := ctx.ReceiveWhere("response or view change", func(ev core.Event) bool {
			switch e := ev.(type) {
			case clientResp:
				return e.CSeq == c.cseq
			case viewChange:
				return true
			default:
				return false
			}
		})
		switch e := ev.(type) {
		case clientResp:
			if c.monitors {
				ctx.Monitor(CounterLivenessMonitor, notifyAcked{})
			}
			return e.Result.(int64)
		case viewChange:
			// New primary: re-send the outstanding request.
			c.primary = e.Primary
			ctx.Send(c.primary, clientReq{Client: ctx.ID(), CSeq: c.cseq, Op: op})
		}
	}
}

// newReplicaInjector builds the scenario's failure injection on the core
// fault plane: a shared core.FaultInjector whose candidates come straight
// from the failover manager's placement (god's-eye access, exactly like
// the paper's TestingDriver — safe and deterministic because the runtime
// serializes all machines). The scheduler picks the moment and the victim
// within the run's crash budget; on a crash the failover manager is
// notified, mirroring a failure detector.
func newReplicaInjector(fm core.MachineID, fmm *fmMachine, primaryOnly bool) *core.FaultInjector {
	return &core.FaultInjector{
		Candidates: func() []core.MachineID {
			if len(fmm.replicas) == 0 {
				// Placement has not happened yet; defer the offer.
				return nil
			}
			if primaryOnly {
				return []core.MachineID{fmm.primary}
			}
			return fmm.replicas
		},
		OnCrash: func(ctx *core.Context, victim core.MachineID) {
			ctx.Logf("injected failure of replica %d", victim)
			ctx.Send(fm, replicaFailed{ID: victim})
		},
	}
}
