package catalog

import (
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

// TestCatalogFaultScenarios drives every catalog scenario that declares a
// fault budget (crashes, drops, duplicates, timer pacing). The fault
// plane's crash reaping hands goroutine unwinding to the engine between
// steps; this test under the race detector (CI's `go test -race ./...`) is
// the enforcement that no fault path breaks the serialization or the replay
// contract. Buggy scenarios must find their seeded bug at
// the fixed seed with a trace that replays (including the new fault
// decision kinds); clean scenarios must stay clean under a modest budget.
func TestCatalogFaultScenarios(t *testing.T) {
	faulty := 0
	for _, e := range All() {
		e := e
		test := e.Build()
		if test.Faults == (core.Faults{}) {
			continue
		}
		faulty++
		t.Run(e.Name, func(t *testing.T) {
			opts := e.Options
			opts.Scheduler = "random"
			opts.Seed = 1
			opts.NoReplayLog = true
			if opts.Iterations <= 0 || opts.Iterations > 3000 {
				opts.Iterations = 3000
			}
			res := core.MustExplore(e.Build(), opts)
			switch e.Expect {
			case SeededBug:
				if !res.BugFound {
					t.Fatalf("%s: seeded bug not found at seed 1 within %d executions", e.Name, opts.Iterations)
				}
				hasFault := false
				for _, d := range res.Report.Trace.Decisions {
					if d.Kind == core.DecisionTimer || d.Kind == core.DecisionCrash ||
						d.Kind == core.DecisionDeliver || d.Kind == core.DecisionPersist {
						hasFault = true
						break
					}
				}
				if !hasFault {
					t.Fatalf("%s: buggy trace records no fault decisions", e.Name)
				}
				rep, err := core.Replay(e.Build(), res.Report.Trace, opts)
				if err != nil {
					t.Fatalf("%s: trace did not replay: %v", e.Name, err)
				}
				if rep == nil || rep.Message != res.Report.Message {
					t.Fatalf("%s: replay mismatch", e.Name)
				}
			default:
				if res.BugFound {
					t.Fatalf("%s: expected clean, found: %v", e.Name, res.Report.Error())
				}
			}
		})
	}
	if faulty == 0 {
		t.Fatal("no catalog scenario declares a fault budget")
	}
}
