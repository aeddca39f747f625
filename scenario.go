package gostorm

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/catalog"
)

// Scenario is one of the repository's registered case-study scenarios:
// the paper's §2 replication example, the Azure Storage vNext extent
// manager, the MigratingTable specification check (including every
// Table 2 seeded bug), and the Service Fabric counter/pipeline models.
// Scenarios are how the bundled systems are reached from the public API —
// examples and CLIs build them by name and pass the result to Explore.
type Scenario struct {
	// Name is the stable scenario name ("replsys-safety",
	// "ExtentNodeLivenessViolation", "MigrateSkipPreferOld-custom", ...).
	Name string
	// About is a one-line description.
	About string

	entry catalog.Entry
}

// Test builds the scenario's systematic test, fresh for each call.
func (s Scenario) Test() Test { return s.entry.Build() }

// Options returns the scenario's recommended engine options (step bounds
// sized to the workload, iteration budgets for expected-clean runs).
// Callers layer their own options on top — later options override
// earlier ones — e.g.:
//
//	res, err := gostorm.Explore(sc.Test(), append(sc.Options(), gostorm.WithSeed(7))...)
func (s Scenario) Options() []Option {
	// The catalog recommends exactly these two (TestScenarioOptionsCoverCatalog
	// fails on an entry that sets anything else).
	var out []Option
	if n := s.entry.Options.Iterations; n > 0 {
		out = append(out, WithIterations(n))
	}
	if n := s.entry.Options.MaxSteps; n > 0 {
		out = append(out, WithMaxSteps(n))
	}
	return out
}

// Scenarios returns every registered scenario, sorted by name.
func Scenarios() []Scenario {
	entries := catalog.All()
	out := make([]Scenario, len(entries))
	for i, e := range entries {
		out[i] = Scenario{Name: e.Name, About: e.About, entry: e}
	}
	return out
}

// ScenarioByName returns the named scenario, or an error listing how to
// discover the valid names.
func ScenarioByName(name string) (Scenario, error) {
	e, err := catalog.Get(name)
	if err != nil {
		return Scenario{}, fmt.Errorf("gostorm: unknown scenario %q (see Scenarios)", name)
	}
	return Scenario{Name: e.Name, About: e.About, entry: e}, nil
}

// DescribeScenarios renders the scenario catalog as a listing, one
// "name  description" line per scenario — what `systest -list` prints.
func DescribeScenarios() string { return catalog.Describe() }
