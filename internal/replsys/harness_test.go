package replsys

import (
	"strings"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

func TestHarnessFindsSafetyBug(t *testing.T) {
	test := Scenario(ScenarioConfig{Monitors: WithSafety})
	res := core.MustExplore(test, core.Options{
		Scheduler:  "random",
		Iterations: 5000,
		MaxSteps:   2000,
		Seed:       1,
	})
	if !res.BugFound {
		t.Fatal("safety bug not found")
	}
	if res.Report.Kind != core.SafetyBug {
		t.Fatalf("kind = %v, want safety", res.Report.Kind)
	}
	if !strings.Contains(res.Report.Message, "replicas") {
		t.Fatalf("unexpected message: %s", res.Report.Message)
	}
}

func TestHarnessFindsLivenessBug(t *testing.T) {
	test := Scenario(ScenarioConfig{Monitors: WithLiveness})
	res := core.MustExplore(test, core.Options{
		Scheduler:  "random",
		Iterations: 50,
		MaxSteps:   3000,
		Seed:       1,
	})
	if !res.BugFound {
		t.Fatal("liveness bug not found")
	}
	if res.Report.Kind != core.LivenessBug {
		t.Fatalf("kind = %v, want liveness: %s", res.Report.Kind, res.Report.Message)
	}
	if !strings.Contains(res.Report.Message, LivenessMonitorName) {
		t.Fatalf("unexpected message: %s", res.Report.Message)
	}
}

func TestHarnessPCTFindsSafetyBug(t *testing.T) {
	test := Scenario(ScenarioConfig{Monitors: WithSafety})
	res := core.MustExplore(test, core.Options{
		Scheduler:  "pct",
		Iterations: 5000,
		MaxSteps:   2000,
		Seed:       1,
		// pct adapts per worker; pin 1 so the budget stays calibrated.
		Workers: 1,
	})
	if !res.BugFound || res.Report.Kind != core.SafetyBug {
		t.Fatalf("pct did not find the safety bug: %+v", res)
	}
}

func TestFixedSystemIsClean(t *testing.T) {
	test := Scenario(ScenarioConfig{
		Server: Config{FixUniqueReplicas: true, FixCounterReset: true},
	})
	res := core.MustExplore(test, core.Options{
		Scheduler:  "random",
		Iterations: 30,
		MaxSteps:   8000,
		Seed:       7,
	})
	if res.BugFound {
		t.Fatalf("fixed system reported a bug: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestHarnessBugReplays(t *testing.T) {
	test := Scenario(ScenarioConfig{Monitors: WithSafety})
	opts := core.Options{Scheduler: "random", Iterations: 5000, MaxSteps: 2000, Seed: 3, NoReplayLog: true}
	res := core.MustExplore(test, opts)
	if !res.BugFound {
		t.Fatal("setup: no bug found")
	}
	rep, err := core.Replay(test, res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if rep == nil || rep.Message != res.Report.Message {
		t.Fatalf("replay mismatch: %+v vs %+v", rep, res.Report)
	}
	if len(rep.Log) == 0 {
		t.Fatal("replay log empty")
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := ScenarioConfig{}.withDefaults()
	if sc.Monitors != WithSafety|WithLiveness {
		t.Fatalf("defaults: %+v", sc)
	}
}
