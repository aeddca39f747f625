package core

import (
	"fmt"
	"testing"
)

// Doors for the external tests of this package (package core_test), which
// drive the catalog — a package core itself cannot import.

// ProbeDepth is the depth the registered pct and delay schedulers run at.
const ProbeDepth = probeDepth

// ExploreWithoutFairTail runs the one-worker plan of o's single scheduler
// as Explore does — seeded per position, calibrated if adaptive, stopping at
// the first bug — except that no runtime is told the length estimate, so no
// execution enters the fair tail before the step bound: the reference that
// tail is held to.
func ExploreWithoutFairTail(tb testing.TB, t Test, o Options) {
	o = resolved(o)
	cfg := o.runtimeConfig(t, false)
	s := newScheduler(tb, o.Scheduler, 0)
	_, adaptive := s.(LengthHinted)
	for i := 0; i < o.Iterations; i++ {
		cfg.seed = execSeed(o.Seed, i)
		s.Prepare(cfg.seed, o.MaxSteps)
		r := newRuntime(s, cfg)
		if r.execute(t) != nil {
			return
		}
		if i == 0 && adaptive {
			s = newScheduler(tb, o.Scheduler, min(r.steps, o.MaxSteps))
		}
	}
}

// replayLog replays tr as Replay does, on a runtime from pool (nil:
// unpooled) whose replay log is capped at logCap lines, and returns the log.
func replayLog(pool *execPool, t Test, tr *Trace, o Options, logCap int) []string {
	sched := newReplayScheduler(tr)
	cfg := o.runtimeConfig(t, true)
	cfg.faults, cfg.logCap = tr.Faults, logCap
	r := pool.runtime(sched, cfg)
	r.execute(t)
	return r.logLines()
}

// CountResumes runs the first n executions of the one-worker plan of o —
// seeded, and calibrated for an adaptive scheduler, as Explore does — twice
// on one pooled runtime: the first pass leaves on the free list every
// worker the second will use, and the second counts their resumes by
// caller (countResumes). It returns them with the second pass's scheduling
// steps. An execution that finds a bug is counted like any other.
func CountResumes(tb testing.TB, t Test, o Options, n int) (counts ResumeCounts, steps int, err error) {
	o = resolved(o)
	cfg := o.runtimeConfig(t, false)
	s := newScheduler(tb, o.Scheduler, 0)
	if _, adaptive := s.(LengthHinted); adaptive {
		s.Prepare(execSeed(o.Seed, 0), o.MaxSteps)
		r := newRuntime(s, cfg)
		if r.execute(t) == nil {
			cfg.lengthHint = min(r.steps, o.MaxSteps)
		}
		s = newScheduler(tb, o.Scheduler, cfg.lengthHint)
	}
	pool := newExecPool(o)
	defer pool.release()
	workers := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			cfg.seed = execSeed(o.Seed, i)
			s.Prepare(cfg.seed, o.MaxSteps)
			r := pool.runtime(s, cfg)
			if pass == 1 && i == 0 {
				workers = len(r.freeWorkers)
				countResumes(r, &counts)
			}
			r.execute(t)
			if pass == 1 {
				steps += r.steps
			}
		}
	}
	if got := len(pool.rt.freeWorkers); got != workers {
		return counts, steps, fmt.Errorf("%d workers after the counted pass, %d before: some were not counted", got, workers)
	}
	return counts, steps, nil
}

// ExploreDFS enumerates t's schedule tree under o (exploreDFS) and reports
// the outcome and whether the tree was spent.
func ExploreDFS(t Test, o Options) (Result, bool) { return exploreDFS(t, o) }
