package catalog

import (
	"strings"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Fatalf("duplicate scenario name %q", e.Name)
		}
		seen[e.Name] = true
		if e.About == "" {
			t.Fatalf("scenario %q lacks a description", e.Name)
		}
		if e.Build == nil {
			t.Fatalf("scenario %q lacks a builder", e.Name)
		}
		if e.Expect != Clean && e.Expect != SeededBug {
			t.Fatalf("scenario %q states no expected verdict", e.Name)
		}
	}
}

func TestCatalogEntriesBuildAndRun(t *testing.T) {
	// Every scenario must build and survive one short execution without
	// crashing the engine (bugs are fine; panics in the harness wiring
	// are not — they'd show up as safety bugs mentioning the harness).
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opts := e.Options
			opts.Scheduler = "random"
			opts.Iterations = 2
			opts.Seed = 1
			opts.NoReplayLog = true
			res := core.MustExplore(e.Build(), opts)
			if res.BugFound && strings.Contains(res.Report.Message, "panic in harness") {
				t.Fatalf("harness wiring panicked: %s", res.Report.Message)
			}
		})
	}
}

func TestCatalogGet(t *testing.T) {
	if _, err := Get("mtable"); err != nil {
		t.Fatalf("known scenario not found: %v", err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names / All mismatch")
	}
	if !strings.Contains(Describe(), "mtable") {
		t.Fatal("Describe lacks scenarios")
	}
}

func TestCleanScenariosAreClean(t *testing.T) {
	// Every entry expected clean must not report bugs under a modest
	// budget. One that declares a fault budget is TestCatalogFaultScenarios'.
	for _, e := range All() {
		if e.Expect != Clean || e.Build().Faults != (core.Faults{}) {
			continue
		}
		opts := e.Options
		opts.Scheduler = "random"
		opts.Iterations = 20
		opts.Seed = 2
		opts.NoReplayLog = true
		res := core.MustExplore(e.Build(), opts)
		if res.BugFound {
			t.Fatalf("%s reported a bug: %v", e.Name, res.Report.Error())
		}
	}
}

func TestCatalogRunsWithParallelWorkers(t *testing.T) {
	// A catalog entry run with a worker-pool override must behave exactly
	// like the direct engine call. (Override *merging* now lives in the
	// public option layering — see gostorm.Scenario.Options and the
	// catalog_test external package.)
	e, err := Get("replsys-safety")
	if err != nil {
		t.Fatal(err)
	}
	opts := e.Options
	opts.Scheduler = "random"
	opts.Seed = 1
	opts.Iterations = 5000
	opts.Workers = 4
	opts.NoReplayLog = true
	res := core.MustExplore(e.Build(), opts)
	if !res.BugFound {
		t.Fatal("parallel catalog run did not find the seeded safety bug")
	}
}
