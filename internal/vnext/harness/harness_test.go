package harness

import (
	"strings"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/vnext"
)

// buggy returns the harness config with the §3.6 bug present.
func buggy(s Scenario) HarnessConfig {
	return HarnessConfig{Scenario: s, Manager: vnext.Config{}}
}

// fixed returns the harness config with the fix applied.
func fixed(s Scenario) HarnessConfig {
	return HarnessConfig{Scenario: s, Manager: vnext.Config{IgnoreSyncFromUnknownNodes: true}}
}

func TestReplicateScenarioConverges(t *testing.T) {
	res := core.MustExplore(Test(fixed(ScenarioReplicate)), core.Options{
		Scheduler:  "random",
		Iterations: 25,
		MaxSteps:   4000,
		Seed:       1,
	})
	if res.BugFound {
		t.Fatalf("replicate scenario reported a bug: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestFailAndRepairFixedIsClean(t *testing.T) {
	res := core.MustExplore(Test(fixed(ScenarioFailAndRepair)), core.Options{
		Scheduler:  "random",
		Iterations: 25,
		MaxSteps:   5000,
		Seed:       2,
	})
	if res.BugFound {
		t.Fatalf("fixed system reported a bug: %v\n%s", res.Report.Error(), res.Report.FormatLog())
	}
}

func TestLivenessBugFoundByRandom(t *testing.T) {
	res := core.MustExplore(Test(buggy(ScenarioFailAndRepair)), core.Options{
		Scheduler:  "random",
		Iterations: 2000,
		MaxSteps:   3000,
		Seed:       1,
	})
	if !res.BugFound {
		t.Fatal("ExtentNodeLivenessViolation not found by the random scheduler")
	}
	if res.Report.Kind != core.LivenessBug {
		t.Fatalf("kind = %v (%s), want liveness", res.Report.Kind, res.Report.Message)
	}
	if !strings.Contains(res.Report.Message, RepairMonitorName) {
		t.Fatalf("message %q does not name the RepairMonitor", res.Report.Message)
	}
}

func TestLivenessBugFoundByPCT(t *testing.T) {
	res := core.MustExplore(Test(buggy(ScenarioFailAndRepair)), core.Options{
		Scheduler:  "pct",
		Iterations: 2000,
		MaxSteps:   3000,
		Seed:       1,
		// pct adapts per worker; pin 1 so the budget stays calibrated.
		Workers: 1,
	})
	if !res.BugFound || res.Report.Kind != core.LivenessBug {
		t.Fatalf("pct did not find the liveness bug: %+v", res)
	}
}

func TestLivenessBugReplays(t *testing.T) {
	opts := core.Options{Scheduler: "random", Iterations: 2000, MaxSteps: 3000, Seed: 1, NoReplayLog: true}
	res := core.MustExplore(Test(buggy(ScenarioFailAndRepair)), opts)
	if !res.BugFound {
		t.Fatal("setup: bug not found")
	}
	rep, err := core.Replay(Test(buggy(ScenarioFailAndRepair)), res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if rep == nil || rep.Kind != core.LivenessBug {
		t.Fatalf("replay did not reproduce the liveness bug: %+v", rep)
	}
	// The replay log must show the telltale sequence: a SyncReport
	// delivered to the manager (the stale one is indistinguishable in the
	// log, but the log must at least capture manager traffic).
	joined := strings.Join(rep.Log, "\n")
	if !strings.Contains(joined, "SyncReport") {
		t.Fatal("replay log lacks SyncReport traffic")
	}
}

func TestDropMessagesStillConvergesWhenFixed(t *testing.T) {
	cfg := fixed(ScenarioFailAndRepair)
	cfg.DropMessages = true
	res := core.MustExplore(Test(cfg), core.Options{
		Scheduler:  "random",
		Iterations: 10,
		MaxSteps:   6000,
		Seed:       4,
	})
	if res.BugFound {
		t.Fatalf("fixed system with message loss reported a bug: %v\n%s",
			res.Report.Error(), res.Report.FormatLog())
	}
}

func TestMetadataShape(t *testing.T) {
	meta := Metadata()
	if len(meta) != 5 {
		t.Fatalf("machine types = %d, want 5 (as in Table 1)", len(meta))
	}
	totalHandlers := 0
	for _, m := range meta {
		if m.States == 0 {
			t.Fatalf("machine %s reports zero states", m.Machine)
		}
		totalHandlers += m.Handlers
	}
	if totalHandlers == 0 {
		t.Fatal("no handlers counted")
	}
}
