package core_test

import (
	"testing"

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// TestResumeCountCatalog holds catalog entries to a ceiling on the resumes
// of a machine coroutine their first n executions make, per execution or,
// for replsys-fixed (8 000 steps an execution), per scheduling step: seed 1,
// one worker. Each ceiling is the measured figure rounded up, so a handoff
// that comes back fails here: one relayed through the hub while a free
// stack the hub resumed could resume the pick itself, or a SendLast turned
// back into a Send, whose machine would wait for its last step on a stack.
// What is left is mostly one resume per handoff to a machine suspended
// mid-handler in a send owned by the system under test, a Receive, a
// Persist or a Sync, and the reaper unwinding a crash victim caught
// mid-handler.
func TestResumeCountCatalog(t *testing.T) {
	for _, c := range []struct {
		name, scheduler string
		n               int
		perStep         bool
		ceiling         float64
	}{
		{"wal-fixed", "random", 1000, false, 7.14},
		{"replsys-fixed", "random", 90, true, 0.0024},
		{"mtable", "random", 100, false, 118},
		{"TombstoneOutputETag", "pct", 100, false, 78},
		{"vnext-repair", "random", 100, false, 41.2},
		{"fabric-failover", "random", 100, false, 30.3},
	} {
		e, err := catalog.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		o := e.Options
		o.Seed, o.Workers, o.Scheduler, o.Portfolio = 1, 1, c.scheduler, nil
		counts, steps, err := core.CountResumes(t, e.Build(), o, c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rate, per := float64(counts.Total())/float64(c.n), "execution"
		if c.perStep {
			rate, per = float64(counts.Total())/float64(steps), "step"
		}
		if rate > c.ceiling {
			t.Errorf("%s × %s: %.4f resumes per %s (%+v over %d executions, %d steps), ceiling %v",
				c.name, c.scheduler, rate, per, counts, c.n, steps, c.ceiling)
		}
	}
}
