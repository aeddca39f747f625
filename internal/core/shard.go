package core

// This file is the engine-side hook of the distributed exploration control
// plane (internal/dist): ExploreShard runs the exploration loop (loop.go)
// over an explicit sub-range of the run's global schedule plan. Every
// position's schedule is a pure function of the plan, so the ranges can be
// explored by different processes, on different machines, in any order —
// and the union of the shard results is the single-process result. That is
// the determinism contract the distributed coordinator builds on: the
// winning bug is the one at the lowest global position, wherever it was
// found.

import (
	"fmt"
	"time"
)

// Shard selects the sub-range of the global schedule plan an ExploreShard
// call owns, plus the cross-shard stop bound.
type Shard struct {
	// From and To bound the owned global positions: [From, To), with
	// 0 <= From < To <= PlanSize(options). Global position g maps to
	// portfolio member g % nm, member-local iteration g / nm (nm = 1 for
	// single-scheduler runs, where the only member is Options.Scheduler).
	From, To int64
	// Stop, when non-nil, is the coordinator's cancel-on-first-bug signal:
	// positions >= its value are not started, and an execution in flight at
	// such a position is aborted — it is polled before every claim and at
	// every scheduling step (through the runtime's abort predicate), so it
	// must be cheap. It must be monotonically non-increasing and safe for
	// concurrent use. Every position below the final bound that lies in
	// [From, To) is still completed, preserving lowest-position-wins. It is
	// also the one way to cut a run short: lowered to From, it stops the
	// shard at the next scheduling step, and ResolvedTo says how far it got.
	Stop func() int64
}

// ShardResult summarizes an ExploreShard call.
type ShardResult struct {
	// From and To echo the shard bounds.
	From, To int64
	// ResolvedTo is the end of the contiguous completed prefix: every
	// position in [From, ResolvedTo) ran to completion. Positions beyond it
	// were pruned by a bug or an external Stop bound — a coordinator
	// re-issues [ResolvedTo, To) if it still needs them.
	ResolvedTo int64
	// BugFound reports a violation at the lowest completed position.
	BugFound bool
	// BugPos is the winning bug's global position (meaningful only when
	// BugFound). It can be below From: a calibration execution for an
	// unowned member iteration 0 can surface a bug at position m < From,
	// and it is reported — it prunes a fleet early — although the shard's
	// statistics leave that execution out.
	BugPos int64
	// Member is the portfolio member index of the winning bug (0 for
	// single-scheduler runs).
	Member int
	// Report describes the violation; Report.Iteration is the member-local
	// iteration (BugPos / nm).
	Report *BugReport
	// Executions and TotalSteps count the shard's own range: the executions
	// at positions in [From, ResolvedTo). A calibration execution re-run for
	// an unowned position below From belongs to the shard that owns the
	// position, so the sums over any partition of a plan equal Explore's.
	Executions int
	TotalSteps int64
	// Candidates holds the entries of the corpus a feedback member built,
	// in canonical position order; nil without one. Such a shard spans the
	// whole plan, so they are Result.Corpus with the decisions attached.
	Candidates []CorpusCandidate
	// Elapsed is the wall-clock time of the call.
	Elapsed time.Duration
}

// PlanSize returns the number of global positions in the schedule plan of
// a run under resolved options (Options.Resolve): members times Iterations.
// Shards partition [0, PlanSize).
func PlanSize(o Options) int64 {
	return int64(len(o.Members())) * int64(o.Iterations)
}

// CheckSubRange returns a *ConfigError naming the first member of o that
// ties a position's schedule to the positions before it, so a proper
// sub-range of the plan cannot be explored on its own: a feedback member
// (mutational) splices the corpus the plan's earlier positions built.
// ExploreShard applies it to every proper sub-range, and a distributed
// coordinator, which hands out nothing else, to its plan.
func CheckSubRange(o Options) error {
	for m, name := range o.Members() {
		newSched, err := lookupScheduler(name)
		if err != nil {
			return err
		}
		if _, ok := newSched().(FeedbackScheduler); !ok {
			continue
		}
		field := "Options.Scheduler"
		if len(o.Portfolio) > 0 {
			field = fmt.Sprintf("Options.Portfolio[%d]", m)
		}
		return &ConfigError{Field: field, Reason: fmt.Sprintf("scheduler %q splices the corpus the plan's earlier positions built and cannot explore a sub-range", name)}
	}
	return nil
}

// ExploreShard explores the global positions [sh.From, sh.To) of the
// schedule plan Explore(t, o) would run — the engine hook distributed
// exploration is built on. The options carry the full plan (seed, budget,
// portfolio); the shard selects the owned slice of it, and the same loop
// Explore runs over [0, PlanSize) drains it.
//
// Determinism contract: for a fixed plan the outcome of every position is
// a pure function of the position, so for any partition of [0, PlanSize)
// into shards, the lowest BugPos across the shard results — member,
// member-local iteration, and encoded trace bytes — is bit-identical to
// the bug Explore reports, however the shards are assigned to processes
// and whatever Workers count each uses.
//
// An adaptive member's length hint is pinned by its iteration 0 (see
// calibrate in loop.go); a shard that holds positions of the member but
// not that one re-runs it, so every shard of a plan pins the same hint and
// carries nothing from an earlier one. A plan with a feedback member runs
// whole: a proper sub-range of it is rejected with the ConfigError of
// CheckSubRange.
func ExploreShard(t Test, o Options, sh Shard) (ShardResult, error) {
	o, err := o.Resolve(t)
	if err != nil {
		return ShardResult{}, err
	}
	if total := PlanSize(o); sh.From < 0 || sh.To > total || sh.From >= sh.To {
		return ShardResult{}, &ConfigError{
			Field:  "Shard",
			Reason: fmt.Sprintf("position range [%d, %d) must be a non-empty sub-range of the plan [0, %d)", sh.From, sh.To, total),
		}
	}
	ex, err := exploreRange(t, o, sh, false)
	if err != nil {
		return ShardResult{}, err
	}
	res := ShardResult{From: sh.From, To: sh.To, ResolvedTo: ex.frontier}
	if ex.corpus != nil {
		res.Candidates = ex.corpus.entries
	}
	for _, ms := range ex.stats {
		res.Executions += ms.Executions
		res.TotalSteps += ms.TotalSteps
	}
	if ex.bug != nil {
		res.BugFound = true
		res.BugPos = ex.bugPos.Load()
		res.Member = int(res.BugPos % ex.nm)
		res.Report = ex.bug
		if !o.NoReplayLog {
			attachReplayLog(t, o, ex.bug)
		}
	}
	res.Elapsed = time.Since(ex.start)
	return res, nil
}
