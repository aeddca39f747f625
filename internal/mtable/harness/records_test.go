package harness_test

import (
	"testing"

	"github.com/gostorm/gostorm"
	mharness "github.com/gostorm/gostorm/internal/mtable/harness"
)

// TestStubRecordsSurviveReuse exercises the harness's record-ownership
// rule (harness.go, "events") where it is under the most pressure: four
// services keep two or three requests queued behind a Tables machine that
// is blocked on another client's decision, for eight operations each,
// while a timer-paced migrator cuts in wherever the scheduler lets it.
// Every client refills its one request and one decision record dozens of
// times per execution and the Tables machine its one response record a
// few hundred times; a reader that held on to a peer's record across a
// scheduling point would read the next request's identity and the run
// would deadlock ("Tables waiting to receive LPDecision(2)") or diverge
// from the reference table. Four workers, so the race detector sees the
// records of concurrent executions side by side; under the enabledcheck
// tag every receive predicate over a recycled record is cross-checked
// against a from-scratch enabled set at every step.
func TestStubRecordsSurviveReuse(t *testing.T) {
	test := mharness.Test(mharness.HarnessConfig{Services: 4, OpsPerService: 8, TimerPacedMigrator: true})
	for _, sched := range []string{"random", "pct", "delay"} {
		res, err := gostorm.Explore(test,
			gostorm.WithScheduler(sched), gostorm.WithWorkers(4), gostorm.WithSeed(scheduleSeed),
			gostorm.WithIterations(300), gostorm.WithMaxSteps(30000))
		if err != nil {
			t.Fatal(err)
		}
		if res.BugFound {
			t.Fatalf("%s: %v\n%s", sched, res.Report.Error(), res.Report.FormatLog())
		}
		if res.Executions != 300 {
			t.Fatalf("%s: %d executions, want 300", sched, res.Executions)
		}
	}
}
