package fabric

import (
	"github.com/gostorm/gostorm/internal/core"
)

// FailoverConfig parameterizes the counter-service failover scenario.
type FailoverConfig struct {
	Fabric Config
	// Increments is the number of client increments before the final
	// read (default 2).
	Increments int
	// FailPrimary restricts the failure injection to the current primary
	// — the §5 scenario ("a scenario where the primary replica fails at
	// some nondeterministic point"). Otherwise any replica may fail.
	FailPrimary bool
	// NoFailure disables failure injection entirely (baseline scenario).
	NoFailure bool
}

func (fc FailoverConfig) increments() int {
	if fc.Increments > 0 {
		return fc.Increments
	}
	return 2
}

// FailoverScenario builds the counter-on-fabric systematic test: a
// replicated counter service, a sequential client, the shared fault-plane
// injector (unless NoFailure), and the counter safety and liveness
// monitors. The fabric model's own promotion assertion is always armed.
// The scenario declares a one-crash budget; Options.Faults can override.
func FailoverScenario(fc FailoverConfig) core.Test {
	var faults core.Faults
	if !fc.NoFailure {
		faults.MaxCrashes = 1
	}
	return core.Test{
		Name: "fabric-failover",
		Entry: func(ctx *core.Context) {
			fmm := newFMMachine(fc.Fabric, NewCounterService)
			fmID := ctx.CreateMachine(fmm, FMName)
			client := &clientMachine{fm: fmID, increments: fc.increments(), monitors: true}
			clientID := ctx.CreateMachine(client, "Client")
			if !fc.NoFailure {
				ctx.CreateMachine(newReplicaInjector(fmID, fmm, fc.FailPrimary), "Injector")
			}
			ctx.SendLast(clientID, core.Signal("start"))
		},
		Monitors: []func() core.Monitor{
			func() core.Monitor { return &counterSafetyMonitor{} },
			newCounterLivenessMonitor,
		},
		Faults: faults,
	}
}

// Metadata reports the fabric model's machine shape for Table 1
// accounting: the model machines (failover manager, replica), the sample
// service's client, the failure injector, and the pipeline stages.
func Metadata() []core.MachineStats {
	return []core.MachineStats{
		{Machine: "FailoverManager", States: 1, Transitions: 0, Handlers: 3},
		{Machine: "Replica", States: 3, Transitions: 4, Handlers: 8},
		{Machine: "Client", States: 2, Transitions: 2, Handlers: 2},
		{Machine: "Injector", States: 1, Transitions: 0, Handlers: 1},
		{Machine: "Source", States: 1, Transitions: 0, Handlers: 1},
		{Machine: "Transform", States: 2, Transitions: 1, Handlers: 3},
		{Machine: "Sink", States: 1, Transitions: 0, Handlers: 2},
	}
}
