package gostorm_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/replsys"
	vharness "github.com/gostorm/gostorm/internal/vnext/harness"
)

// This file is the API-redesign equivalence contract: gostorm.Explore —
// the public single entry point with functional options — must produce
// bit-identical results, traces and statistics to the pre-redesign
// engine entry points it subsumed (core.Run and core.RunPortfolio).
//
// The reference side is not computed by calling legacy code (which by
// now shares the new implementation); it is the committed golden
// fixtures under testdata/equivalence/, recorded by running the actual
// pre-redesign tree (commit 78c2b35, PR 4) on fixed-seed seeded-bug
// workloads — including the adaptive calibration path and the fault
// plane — after verifying the legacy engine's own worker-count
// invariance on each. Explore must reproduce every fixture, at one
// worker and at several, down to the encoded trace bytes. One fixture has
// since been re-recorded from the engine itself: vnext-liveness-pct, when
// the runtime's fair tail moved a liveness verdict at the step bound to
// twice the bound.

// equivalenceFixture mirrors the JSON written by the pre-redesign
// fixture generator.
type equivalenceFixture struct {
	Name       string   `json:"name"`
	Scheduler  string   `json:"scheduler"`
	Portfolio  []string `json:"portfolio"`
	Seed       int64    `json:"seed"`
	Iterations int      `json:"iterations"`
	MaxSteps   int      `json:"maxSteps"`
	BugFound   bool     `json:"bugFound"`
	Executions int      `json:"executions"`
	TotalSteps int64    `json:"totalSteps"`
	Choices    int      `json:"choices"`
	Winner     int      `json:"winner"`
	Iteration  int      `json:"iteration"`
	Kind       string   `json:"kind"`
	Step       int      `json:"step"`
	Machine    string   `json:"machine"`
	Message    string   `json:"message"`
	Members    []struct {
		Scheduler  string `json:"scheduler"`
		Workers    int    `json:"workers"`
		Executions int    `json:"executions"`
		TotalSteps int64  `json:"totalSteps"`
		Winner     bool   `json:"winner"`
	} `json:"members"`
	Trace json.RawMessage `json:"trace"`
}

func loadFixture(t *testing.T, name string) equivalenceFixture {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "equivalence", name+".json"))
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate from the pre-redesign tree): %v", err)
	}
	var f equivalenceFixture
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// fixtureBuilds maps fixture names to their test builders; the workloads
// must match what the pre-redesign generator ran.
var fixtureBuilds = map[string]func() gostorm.Test{
	"replsys-safety-random": func() gostorm.Test {
		return replsys.Scenario(replsys.ScenarioConfig{Monitors: replsys.WithSafety})
	},
	"replsys-safety-portfolio": func() gostorm.Test {
		return replsys.Scenario(replsys.ScenarioConfig{Monitors: replsys.WithSafety})
	},
	"vnext-liveness-pct": func() gostorm.Test {
		return vharness.Test(vharness.HarnessConfig{Scenario: vharness.ScenarioFailAndRepair})
	},
	"replsys-fixed-random": func() gostorm.Test {
		return replsys.Scenario(replsys.ScenarioConfig{
			Server: replsys.Config{FixUniqueReplicas: true, FixCounterReset: true},
		})
	},
}

// assertMatchesFixture runs Explore with the fixture's configuration at
// the given worker count and demands bit-identical output.
func assertMatchesFixture(t *testing.T, f equivalenceFixture, workers int) {
	t.Helper()
	build, ok := fixtureBuilds[f.Name]
	if !ok {
		t.Fatalf("no builder for fixture %q", f.Name)
	}
	opts := []gostorm.Option{
		gostorm.WithSeed(f.Seed),
		gostorm.WithIterations(f.Iterations),
		gostorm.WithMaxSteps(f.MaxSteps),
		gostorm.WithWorkers(workers),
		gostorm.WithNoReplayLog(),
	}
	if len(f.Portfolio) > 0 {
		opts = append(opts, gostorm.WithPortfolio(f.Portfolio...))
	} else {
		opts = append(opts, gostorm.WithScheduler(f.Scheduler))
	}
	res, err := gostorm.Explore(build(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.BugFound != f.BugFound {
		t.Fatalf("%s/workers=%d: BugFound = %v, fixture %v", f.Name, workers, res.BugFound, f.BugFound)
	}
	if res.Executions != f.Executions || res.TotalSteps != f.TotalSteps || res.Choices != f.Choices {
		t.Fatalf("%s/workers=%d: statistics diverge from the pre-redesign engine:\nexplore: execs=%d steps=%d choices=%d\nfixture: execs=%d steps=%d choices=%d",
			f.Name, workers, res.Executions, res.TotalSteps, res.Choices, f.Executions, f.TotalSteps, f.Choices)
	}
	if res.Winner != f.Winner {
		t.Fatalf("%s/workers=%d: Winner = %d, fixture %d", f.Name, workers, res.Winner, f.Winner)
	}
	if len(res.Portfolio) != len(f.Members) {
		t.Fatalf("%s/workers=%d: %d member stats, fixture %d", f.Name, workers, len(res.Portfolio), len(f.Members))
	}
	for m, ms := range res.Portfolio {
		fm := f.Members[m]
		// Worker split depends on the requested worker budget, so it is
		// only compared at the fixture's own budget (handled below); the
		// canonical fields must match at every worker count.
		if ms.Scheduler != fm.Scheduler || ms.Executions != fm.Executions ||
			ms.TotalSteps != fm.TotalSteps || ms.Winner != fm.Winner {
			t.Fatalf("%s/workers=%d: member %d diverges:\nexplore: %+v\nfixture: %+v", f.Name, workers, m, ms, fm)
		}
	}
	if !f.BugFound {
		return
	}
	if res.Report.Iteration != f.Iteration || res.Report.Kind.String() != f.Kind ||
		res.Report.Step != f.Step || res.Report.Machine != f.Machine || res.Report.Message != f.Message {
		t.Fatalf("%s/workers=%d: bug report diverges:\nexplore: iter=%d kind=%s step=%d machine=%q msg=%q\nfixture: iter=%d kind=%s step=%d machine=%q msg=%q",
			f.Name, workers,
			res.Report.Iteration, res.Report.Kind, res.Report.Step, res.Report.Machine, res.Report.Message,
			f.Iteration, f.Kind, f.Step, f.Machine, f.Message)
	}
	enc, err := res.Report.Trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's trace was re-indented when embedded in the fixture
	// document; decode and re-encode it so both sides go through the
	// identical canonical encoder before the byte comparison.
	ftr, err := gostorm.DecodeTrace(f.Trace)
	if err != nil {
		t.Fatalf("%s: fixture trace does not decode: %v", f.Name, err)
	}
	fenc, err := ftr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, fenc) {
		t.Fatalf("%s/workers=%d: encoded trace differs from the pre-redesign trace", f.Name, workers)
	}
}

// TestExploreMatchesPreRedesignEngine sweeps every golden fixture across
// worker counts: the public entry point must reproduce the pre-redesign
// engine bit for bit, whatever the parallelism.
func TestExploreMatchesPreRedesignEngine(t *testing.T) {
	for _, name := range []string{
		"replsys-safety-random",
		"vnext-liveness-pct",
		"replsys-safety-portfolio",
		"replsys-fixed-random",
	} {
		f := loadFixture(t, name)
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				assertMatchesFixture(t, f, workers)
			}
		})
	}
}

// TestExploreReplaysPreRedesignTrace: a trace recorded by the
// pre-redesign engine replays through the public API to the identical
// violation — the compatibility half of the replay-debugging loop.
func TestExploreReplaysPreRedesignTrace(t *testing.T) {
	f := loadFixture(t, "replsys-safety-random")
	tr, err := gostorm.DecodeTrace(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gostorm.Replay(fixtureBuilds[f.Name](), tr, gostorm.WithMaxSteps(f.MaxSteps))
	if err != nil {
		t.Fatalf("pre-redesign trace did not replay: %v", err)
	}
	if rep == nil {
		t.Fatal("replay completed cleanly; fixture recorded a violation")
	}
	if rep.Message != f.Message {
		t.Fatalf("replay reproduced %q, fixture recorded %q", rep.Message, f.Message)
	}
}

// TestReplayNilTrace: a nil trace (a DecodeTrace error ignored) is a
// typed configuration error, not a panic.
func TestReplayNilTrace(t *testing.T) {
	_, err := gostorm.Replay(fixtureBuilds["replsys-safety-random"](), nil)
	ce, ok := err.(*gostorm.ConfigError)
	if !ok {
		t.Fatalf("Replay(nil trace) error = %v (%T), want *gostorm.ConfigError", err, err)
	}
	if ce.Field != "Trace" {
		t.Fatalf("ConfigError.Field = %q, want \"Trace\"", ce.Field)
	}
}
