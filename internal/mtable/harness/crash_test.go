package harness

import (
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

// TestCrashMigratorCheckpointSurvives: the fixed system with the
// migrator's completion routed through the crash-consistency plane
// (durable done marker, post-completion crash + Restart) stays clean —
// the synced checkpoint survives every crash the scheduler injects, and
// the specification check is undisturbed by the migrator's restart.
func TestCrashMigratorCheckpointSurvives(t *testing.T) {
	res := core.MustExplore(Test(HarnessConfig{CrashMigrator: true}), core.Options{
		Scheduler:   "random",
		Iterations:  120,
		MaxSteps:    30000,
		Seed:        1,
		NoReplayLog: true,
	})
	if res.BugFound {
		t.Fatalf("crash-migrator system failed: %v", res.Report.Error())
	}
}
