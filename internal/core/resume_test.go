package core_test

import (
	"testing"

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// TestResumeCountCatalog holds catalog entries to a ceiling on the resumes
// of a machine coroutine their first n executions make, per execution or,
// for replsys-fixed (8 000 steps an execution), per scheduling step: seed 1,
// one worker. A free stack the hub resumed resumes a suspended pick itself
// instead of yielding to the hub to have it do so, which is what keeps them
// under; relaying through the hub they read 12.23, 0.1469, 233.75 and
// 138.35. What is left is mostly one resume per handoff between two
// machines suspended mid-handler. The pct row's executions that spin (the
// migrator re-picking itself, hardly a resume a step) end in pct's fair
// tail, so the mean per execution rose from 120.25 to 132.92 while its
// steps fell from 656 585 to 73 266.
func TestResumeCountCatalog(t *testing.T) {
	for _, c := range []struct {
		name, scheduler string
		n               int
		perStep         bool
		ceiling         float64
	}{
		{"wal-fixed", "random", 1000, false, 10.4},
		{"replsys-fixed", "random", 90, true, 0.097},
		{"mtable", "random", 100, false, 206},
		{"TombstoneOutputETag", "pct", 100, false, 134},
	} {
		e, err := catalog.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		o := e.Options
		o.Seed, o.Workers, o.Scheduler, o.Portfolio = 1, 1, c.scheduler, nil
		counts, steps, err := core.CountResumes(e.Build(), o, c.n)
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
