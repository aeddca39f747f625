package fabric

import (
	"github.com/gostorm/gostorm/internal/core"
)

// FailoverConfig parameterizes the counter-service failover scenario.
type FailoverConfig struct {
	Fabric Config
	// FailPrimary restricts the failure injection to the current primary
	// — the §5 scenario ("a scenario where the primary replica fails at
	// some nondeterministic point"). Otherwise any replica may fail.
	FailPrimary bool
}

// FailoverScenario builds the counter-on-fabric systematic test: a
// replicated counter service, a sequential client making two increments
// and a read, the shared fault-plane injector, and the counter safety and
// liveness monitors. The fabric model's own promotion assertion is always
// armed. The scenario declares a one-crash budget; Options.Faults can
// override it (a zero budget is the failure-free baseline).
func FailoverScenario(fc FailoverConfig) core.Test {
	return core.Test{
		Name: "fabric-failover",
		Entry: func(ctx *core.Context) {
			fmm := newFMMachine(fc.Fabric, NewCounterService)
			fmID := ctx.CreateMachine(fmm, FMName)
			client := &clientMachine{fm: fmID, increments: 2, monitors: true}
			clientID := ctx.CreateMachine(client, "Client")
			ctx.CreateMachine(newReplicaInjector(fmID, fmm, fc.FailPrimary), "Injector")
			ctx.SendLast(clientID, core.Signal("start"))
		},
		Monitors: []func() core.Monitor{
			func() core.Monitor { return &counterSafetyMonitor{} },
			newCounterLivenessMonitor,
		},
		Faults: core.Faults{MaxCrashes: 1},
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
