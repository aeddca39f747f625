package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// feedbackCandidate is one round-local novel-fingerprint recording,
// indexed by iteration offset within the round so the barrier merge can
// proceed in canonical order.
type feedbackCandidate struct {
	fp        uint64
	decisions []Decision
	ok        bool
}

// runFeedback is the exploration loop for feedback (coverage-guided)
// schedulers: runParallel's claim-an-iteration pool, broken into
// fixed-size generations (feedbackRoundSize iterations) with a corpus
// merge at each barrier. Within a generation the corpus is frozen —
// schedulers only read it — and executions whose coverage fingerprint is
// novel against the generation snapshot record their decision sequence
// as a candidate. Candidates are merged in canonical iteration order at
// the barrier, so the corpus any iteration observes is a pure function
// of (seed, iteration), never of worker interleaving; that is what keeps
// Result (and Result.Corpus) bit-identical across worker counts.
//
// First-bug-wins works exactly as in runParallel: bugIndex gates claims
// and aborts in-flight executions at higher indices. When a generation
// ends with a bug its candidates are NOT merged — later iterations are
// non-canonical — so the reported corpus is the last fully merged
// snapshot, again worker-count independent.
func runFeedback(t Test, o Options, f SchedulerFactory, workers int, st runState) Result {
	start := st.start
	var deadline time.Time
	if o.StopAfter > 0 {
		deadline = start.Add(o.StopAfter)
	}

	corpus := newCorpus(o.CorpusSize)
	f = f.WithCorpus(corpus)

	// Scheduler instances and execution pools persist across generations —
	// the per-round cost is one goroutine spawn per worker, not a pool
	// rebuild. The factory attaches the shared corpus to each instance.
	scheds := make([]Scheduler, workers)
	pools := make([]*execPool, workers)
	for w := range scheds {
		scheds[w] = f.New()
		pools[w] = newExecPool(o)
		defer pools[w].release()
	}

	var (
		bugIndex  atomic.Int64 // lowest buggy iteration so far (Iterations = none)
		completed atomic.Int64 // executions run to completion

		// logs[w] is written by worker w alone (and only read after its
		// round drains), so it needs no lock.
		logs = make(stepLogs, workers)

		mu        sync.Mutex // guards the fields below, plus Progress calls
		bugReport *BugReport
		exhausted bool
	)
	completed.Store(int64(st.execs))
	bugIndex.Store(int64(o.Iterations))

	for base := st.first; base < o.Iterations; {
		// Generation boundaries sit at multiples of feedbackRoundSize in
		// iteration space (a calibration execution at iteration 0 just
		// shortens the first round), so the corpus schedule is independent
		// of how the run started.
		end := (base/feedbackRoundSize + 1) * feedbackRoundSize
		if end > o.Iterations {
			end = o.Iterations
		}
		cand := make([]feedbackCandidate, end-base)
		var next atomic.Int64
		next.Store(int64(base))

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sched := scheds[w]
				pool := pools[w]
				var cur int64
				cfg := o.runtimeConfig(t, false)
				cfg.abort = func() bool { return cur >= bugIndex.Load() }
				for {
					i := int(next.Add(1) - 1)
					if i >= end || int64(i) >= bugIndex.Load() {
						return
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						return
					}
					seed := o.execSeed(i)
					if !sched.Prepare(seed, o.MaxSteps) {
						mu.Lock()
						exhausted = true
						mu.Unlock()
						return
					}
					cur = int64(i)
					r := pool.runtime(sched, cfg)
					rep := r.execute(t)
					if r.aborted {
						// Superseded mid-flight by a bug at a lower index.
						continue
					}
					logs[w] = append(logs[w], stepEntry{i, int64(r.steps)})
					if o.Progress == nil {
						completed.Add(1)
					} else {
						mu.Lock()
						o.Progress(int(completed.Add(1)))
						mu.Unlock()
					}
					if rep != nil {
						mu.Lock()
						if int64(i) < bugIndex.Load() {
							bugIndex.Store(int64(i))
							rep.Trace = newTrace(t.Name, sched.Name(), seed, effectiveFaults(t, o), r.dec.decode())
							rep.Iteration = i
							bugReport = rep
						}
						mu.Unlock()
						continue
					}
					// The corpus is frozen during the round, so has() reads
					// the generation snapshot; duplicate fingerprints within
					// one round are resolved at the merge (lowest iteration
					// wins). full() is a cheap pre-filter — the merge
					// re-checks capacity authoritatively.
					if fp := r.Fingerprint(); !corpus.has(fp) && !corpus.full() {
						cand[i-base] = feedbackCandidate{fp: fp, decisions: r.dec.decode(), ok: true}
					}
				}
			}(w)
		}
		wg.Wait()

		// All workers have drained: the aggregation fields are quiescent.
		if bugReport == nil {
			for j := range cand {
				if cand[j].ok {
					corpus.add(cand[j].fp, base+j, cand[j].decisions)
				}
			}
		}
		if bugReport != nil || exhausted {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		base = end
	}

	res := Result{Exhausted: exhausted, Corpus: corpus.Fingerprints()}
	if bugReport != nil {
		// Canonical, worker-count-independent statistics, as in runParallel.
		win := int(bugIndex.Load())
		res.BugFound = true
		res.Report = bugReport
		res.Choices = len(bugReport.Trace.Decisions)
		res.Executions = win + 1
		res.TotalSteps = st.steps + logs.sum(win)
		res.Elapsed = time.Since(start)
		if !o.NoReplayLog {
			attachReplayLog(t, o, bugReport)
		}
		return res
	}
	res.Executions = int(completed.Load())
	res.TotalSteps = st.steps + logs.sum(o.Iterations)
	res.Elapsed = time.Since(start)
	return res
}

// explorePortfolioFeedback is the portfolio exploration path when any
// member declares feedback: explorePortfolio's race, broken into global
// generations so a single shared corpus can evolve deterministically
// across the whole fleet. Every member contributes candidates — a random
// member that stumbles into a novel fingerprint seeds the corpus the
// mutational members then splice, which is the point of racing them —
// but only feedback members consume it (via FeedbackScheduler).
//
// The determinism contract is explorePortfolio's, extended: a generation
// covers member-local iterations [rb, re) for every member at once, the
// corpus is frozen within it, and the barrier merge walks candidates in
// canonical global order (iteration-major, member-minor — the same
// round-robin order that resolves first-bug-wins). The corpus any
// execution observes is therefore a pure function of (portfolio spec,
// seed, generation), whatever the worker split or interleaving.
func explorePortfolioFeedback(t Test, o Options, factories []SchedulerFactory) (Result, error) {
	nm := len(factories)
	split := portfolioWorkerSplit(o.Workers, factories)

	start := time.Now()
	var deadline time.Time
	if o.StopAfter > 0 {
		deadline = start.Add(o.StopAfter)
	}

	corpus := newCorpus(o.CorpusSize)

	none := int64(nm) * int64(o.Iterations)
	var (
		bestGlobal atomic.Int64 // lowest global position of a confirmed bug
		completed  atomic.Int64 // executions run to completion, for Progress

		mu        sync.Mutex // guards bugReport/winner, plus Progress calls
		bugReport *BugReport
		winner    = -1
	)
	bestGlobal.Store(none)

	type memberRun struct {
		next      atomic.Int64 // next unclaimed member-local iteration (reset per round)
		elapsed   atomic.Int64 // cumulative execution nanoseconds
		exhaustAt atomic.Int64 // lowest refused member-local iteration (o.Iterations = never)
		// ran[i]/steps[i] are written by the one worker that completed
		// iteration i and only read after a barrier.
		ran   []bool
		steps []int64
		first int     // first iteration the rounds run (1 after calibration)
		opts  Options // o with the member-derived seed
	}
	members := make([]*memberRun, nm)
	for m := range members {
		mo := o
		mo.Seed = memberSeed(o.Seed, m)
		members[m] = &memberRun{
			ran:   make([]bool, o.Iterations),
			steps: make([]int64, o.Iterations),
			opts:  mo,
		}
		members[m].exhaustAt.Store(int64(o.Iterations))
	}

	globalPos := func(m, i int) int64 { return int64(i)*int64(nm) + int64(m) }

	// execOne runs member m's iteration i on sched, recording a corpus
	// candidate into candRow (nil = don't record) when the execution is
	// clean and its fingerprint is novel against the generation snapshot.
	// Returns false when the member must stop claiming work (exhaustion).
	execOne := func(m, i int, sched Scheduler, pool *execPool, cfg runtimeConfig, curG *int64, candRow []feedbackCandidate, rb int) bool {
		mr := members[m]
		g := globalPos(m, i)
		seed := mr.opts.execSeed(i)
		if !sched.Prepare(seed, o.MaxSteps) {
			for {
				prev := mr.exhaustAt.Load()
				if int64(i) >= prev || mr.exhaustAt.CompareAndSwap(prev, int64(i)) {
					break
				}
			}
			return false
		}
		*curG = g
		r := pool.runtime(sched, cfg)
		t0 := time.Now()
		rep := r.execute(t)
		mr.elapsed.Add(int64(time.Since(t0)))
		if r.aborted {
			// Superseded mid-flight by a bug at a lower global position.
			return true
		}
		mr.ran[i] = true
		mr.steps[i] = int64(r.steps)
		if o.Progress == nil {
			completed.Add(1)
		} else {
			mu.Lock()
			o.Progress(int(completed.Add(1)))
			mu.Unlock()
		}
		if rep != nil {
			mu.Lock()
			if g < bestGlobal.Load() {
				bestGlobal.Store(g)
				rep.Trace = newTrace(t.Name, sched.Name(), seed, effectiveFaults(t, o), r.dec.decode())
				rep.Iteration = i
				bugReport = rep
				winner = m
			}
			mu.Unlock()
			return true
		}
		if candRow != nil {
			if fp := r.Fingerprint(); !corpus.has(fp) && !corpus.full() {
				candRow[i-rb] = feedbackCandidate{fp: fp, decisions: r.dec.decode(), ok: true}
			}
		}
		return true
	}

	// Phase 1: calibrate adaptive members concurrently, then barrier — the
	// length hints must be pinned before the shared scheduler instances are
	// built. Calibration executions contribute no candidates (as in the
	// single-scheduler path: iteration 0 has no corpus to mutate anyway).
	var cwg sync.WaitGroup
	for m := range factories {
		if !factories[m].Adaptive() {
			continue
		}
		cwg.Add(1)
		go func(m int) {
			defer cwg.Done()
			mr := members[m]
			mr.first = 1
			if globalPos(m, 0) >= bestGlobal.Load() {
				return
			}
			sched := factories[m].New()
			var calG int64
			calCfg := o.runtimeConfig(t, false)
			calCfg.abort = func() bool { return calG >= bestGlobal.Load() }
			execOne(m, 0, sched, nil, calCfg, &calG, nil, 0)
			if mr.ran[0] {
				factories[m] = factories[m].WithLengthHint(int(mr.steps[0]))
			}
		}(m)
	}
	cwg.Wait()

	// The shared corpus attaches after length-hint pinning so feedback
	// members get fully configured factories; instances and pools persist
	// across generations.
	for m := range factories {
		if factories[m].Feedback() {
			factories[m] = factories[m].WithCorpus(corpus)
		}
	}
	scheds := make([][]Scheduler, nm)
	pools := make([][]*execPool, nm)
	for m := range factories {
		scheds[m] = make([]Scheduler, split[m])
		pools[m] = make([]*execPool, split[m])
		for w := 0; w < split[m]; w++ {
			scheds[m][w] = factories[m].New()
			pools[m][w] = newExecPool(o)
			defer pools[m][w].release()
		}
	}

	// Phase 2: global generations. Every member advances through the same
	// member-local window [rb, re) before anyone sees the merged corpus.
	for rb := 0; rb < o.Iterations; rb += feedbackRoundSize {
		re := rb + feedbackRoundSize
		if re > o.Iterations {
			re = o.Iterations
		}
		cand := make([][]feedbackCandidate, nm)
		for m := range cand {
			cand[m] = make([]feedbackCandidate, re-rb)
		}
		var wg sync.WaitGroup
		for m := 0; m < nm; m++ {
			mr := members[m]
			from := rb
			if mr.first > from {
				from = mr.first
			}
			mr.next.Store(int64(from))
			for w := 0; w < split[m]; w++ {
				wg.Add(1)
				go func(m, w int) {
					defer wg.Done()
					mr := members[m]
					sched := scheds[m][w]
					pool := pools[m][w]
					var curG int64
					cfg := o.runtimeConfig(t, false)
					cfg.abort = func() bool { return curG >= bestGlobal.Load() }
					for {
						i := int(mr.next.Add(1) - 1)
						if i >= re || globalPos(m, i) >= bestGlobal.Load() {
							return
						}
						if !deadline.IsZero() && time.Now().After(deadline) {
							return
						}
						if !execOne(m, i, sched, pool, cfg, &curG, cand[m], rb) {
							return
						}
					}
				}(m, w)
			}
		}
		wg.Wait()

		// All workers drained: the aggregation fields are quiescent. As in
		// runFeedback, a generation that ends with a bug does not merge —
		// the reported corpus is the last fully canonical snapshot.
		if bugReport == nil {
			for j := 0; j < re-rb; j++ {
				for m := 0; m < nm; m++ {
					if cand[m][j].ok {
						corpus.add(cand[m][j].fp, int(globalPos(m, rb+j)), cand[m][j].decisions)
					}
				}
			}
		}
		if bugReport != nil {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		stuck := true
		for _, mr := range members {
			if mr.exhaustAt.Load() >= int64(o.Iterations) {
				stuck = false
			}
		}
		if stuck {
			break
		}
	}

	// Canonical statistics: identical to explorePortfolio's tail, plus the
	// corpus fingerprints.
	best := bestGlobal.Load()
	res := Result{Winner: -1, Portfolio: make([]MemberStats, nm), Corpus: corpus.Fingerprints()}
	allExhausted := true
	for m, mr := range members {
		limit := o.Iterations
		if best < none {
			if int64(m) > best {
				limit = 0
			} else {
				limit = int((best-int64(m))/int64(nm)) + 1
			}
			if limit > o.Iterations {
				limit = o.Iterations
			}
		}
		ms := MemberStats{
			Scheduler: o.Portfolio[m],
			Workers:   split[m],
			Elapsed:   time.Duration(mr.elapsed.Load()),
			Exhausted: mr.exhaustAt.Load() < int64(limit),
		}
		for i := 0; i < limit; i++ {
			if mr.ran[i] {
				ms.Executions++
				ms.TotalSteps += mr.steps[i]
			}
		}
		res.Portfolio[m] = ms
		res.Executions += ms.Executions
		res.TotalSteps += ms.TotalSteps
		if !ms.Exhausted {
			allExhausted = false
		}
	}
	res.Exhausted = allExhausted
	if bugReport != nil {
		res.BugFound = true
		res.Report = bugReport
		res.Choices = len(bugReport.Trace.Decisions)
		res.Winner = winner
		res.Portfolio[winner].Winner = true
		res.Elapsed = time.Since(start)
		if !o.NoReplayLog {
			attachReplayLog(t, o, bugReport)
		}
		return res, nil
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
