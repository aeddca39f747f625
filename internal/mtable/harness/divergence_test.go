// External test package: drives the public gostorm surface (see
// parallel_test.go for why these tests live outside package harness).
package harness_test

import (
	"testing"

	"github.com/gostorm/gostorm"
	mharness "github.com/gostorm/gostorm/internal/mtable/harness"
)

// TestLatentFixedSystemDivergenceSeeds is the regression gate for the
// (closed) ROADMAP item "Latent mtable fixed-system divergences": pct
// seeds 1/5/6 used to report stream-window violations and batch-outcome
// mismatches on the *fixed* MigratingTable harness.
//
// The investigation found the oracle innocent on all three seeds. The
// real bug was a split-brain window in the migration hand-over protocol:
// the migrator announced PhasePreferNew in the new table's metadata
// before freezing the old table's meta guard, so under pct starvation a
// client whose cached phase was PreferOld kept reading and writing the
// old table (its guard still validated) while a refreshed client wrote
// the new table — two halves of the system with mutually invisible
// writes. Seed 5 surfaced it as a query missing a row, seed 6 as a
// notfound/conflict outcome mismatch, and seed 1 as a stream emitting a
// stale new-table row that shadowed the freshly written old-table one.
// The fix freezes the old table first (Migrator.msFreezeOld) and makes
// clients treat the frozen old meta as an authoritative transition
// signal so they converge during the hand-over window.
//
// These seeds (pct 1/5/6 x 400 iterations) were skipped until that fix
// and are now its regression gate: they must stay green forever, under
// every build CI runs the tree with; a regression here means the hand-over
// ordering or the client-side window handling broke.
func TestLatentFixedSystemDivergenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 400 executions of a 30k-step harness per seed")
	}
	build := func() gostorm.Test { return mharness.Test(mharness.HarnessConfig{}) }
	for _, seed := range []int64{1, 5, 6} {
		res, err := gostorm.Explore(build(),
			gostorm.WithScheduler("pct"),
			gostorm.WithSeed(seed),
			gostorm.WithIterations(400),
			gostorm.WithMaxSteps(30000),
			gostorm.WithNoReplayLog(),
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.BugFound {
			t.Errorf("pct seed %d: fixed system diverges from the reference table at iteration %d: %v",
				seed, res.Report.Iteration, res.Report.Error())
		}
	}
}
