package core

// This file is the engine's one exploration loop. Everything that runs a
// harness repeatedly under fresh schedules — Explore with one scheduler or
// a portfolio, on one worker or many, with or without a feedback corpus,
// and ExploreShard over a slice of the same plan — is a call to
// exploreRange with different inputs.
//
// The plan. A run with nm members (nm = 1 for a single scheduler) and I
// iterations spans nm*I global positions; member m's iteration i sits at
// g = i*nm + m — iteration-major, member-minor, the round-robin order that
// resolves first-bug-wins. The schedule explored at a position is a pure
// function of (Seed, m, i) via memberSeed and execSeed, so the plan can be
// cut into position ranges and drained by any number of goroutines,
// processes or machines, and the lowest buggy position is the same bug
// everywhere.
//
// Claiming. One pool of Options.Workers goroutines claims positions from
// one shared counter; each worker owns a scheduler instance per member and
// one execution pool.
//
// Pruning. The bound is the lowest buggy position seen so far (and the
// shard's external Stop bound). Claimers refuse to start — and abort in
// flight — positions at or beyond it, and always finish lower ones, which
// may lower it further: when the claimers drain, every position below the
// final bound has completed, so the reported bug is the first in plan
// order at any worker count.
//
// Calibration. An adaptive member's iteration 0 runs alone on a fresh,
// un-hinted instance before any claimer is built, and its step count is
// pinned on the member as the shared program-length estimate; every
// claimer's instance of the member is built with it (SetLengthHint) — that
// is what makes every later position of the member a pure function of its
// seed.
//
// Windows. With a feedback member the range is drained in generation
// windows of feedbackRoundSize iterations (feedbackRoundSize*nm
// positions, aligned to the plan): every claimer's instance of the member
// reads one corpus (AttachCorpus), which is frozen within a window and
// grows only at the barrier, in position order, so the corpus a position
// observes is a function of its generation alone — that is, of every
// position in the generations before it. Such a plan is therefore only ever
// drained whole (CheckSubRange), from an empty corpus. Without one the
// whole range is a single window.
//
// Statistics. Every execution that completes passes through one critical
// section, which folds the range's contiguous resolved prefix in position
// order: each position the frontier passes is added to its member's
// Executions and TotalSteps, up to and including the lowest buggy position.
// A resolution ahead of the frontier waits in a pending set until the gap
// below it closes, so the bookkeeping is proportional to the out-of-order
// span, not to the executions done: empty on one worker, bounded by the
// workers' executions in flight, and by the window with a feedback member.
// Every statistic the adapters report, a shard's ResolvedTo included, is
// the fold after the drain.

import (
	"sync"
	"sync/atomic"
	"time"
)

// member is one portfolio slot of the plan (a single-scheduler plan has
// one): its scheduler's constructor and the base seed its positions derive
// from; what its instances implement, asked of one of them; and the length
// estimate calibration pins on it.
type member struct {
	newSched   func() Scheduler
	seed       int64
	adaptive   bool // instances implement LengthHinted
	feedback   bool // instances implement FeedbackScheduler
	lengthHint int  // 0 until calibrated, and for a member that is not adaptive
}

// claimer is the private state of one pool worker: an instance of every
// member's scheduler and an execution pool. Nothing here is shared, so it
// needs no lock.
type claimer struct {
	scheds []Scheduler // by member
	pool   *execPool
	cfg    runtimeConfig
	cur    int64 // position in flight, read by cfg.abort
}

// explored is one drain of a position range: the plan it runs, the state
// its claimers share, and the outcome its adapters shape into a Result or a
// ShardResult.
type explored struct {
	t       Test
	o       Options // resolved
	sh      Shard
	timed   bool // measure per-member execution time
	nm      int64
	members []member
	workers int

	next   atomic.Int64 // the window's next unclaimed position
	bugPos atomic.Int64 // lowest buggy position so far (the plan size when none); lowered under mu

	mu       sync.Mutex // guards this group
	bug      *BugReport
	stats    []MemberStats   // by member, folded over [sh.From, frontier)
	frontier int64           // end of the range's contiguous resolved prefix
	pending  map[int64]int64 // positions resolved above the frontier: their steps

	start time.Time
	// corpus is the exploration corpus, nil without a feedback member.
	corpus *Corpus
}

// exploreRange drains the positions [sh.From, sh.To) of the plan of o and
// reports the outcome. o is resolved (Options.Resolve) and the range lies
// within the plan; timed asks for per-member execution time.
func exploreRange(t Test, o Options, sh Shard, timed bool) (*explored, error) {
	total := PlanSize(o)
	if sh.From != 0 || sh.To != total {
		if err := CheckSubRange(o); err != nil {
			return nil, err
		}
	}
	members := o.Members()
	ex := &explored{
		t: t, o: o, sh: sh, timed: timed, nm: int64(len(members)),
		members: make([]member, len(members)), stats: make([]MemberStats, len(members)),
		frontier: sh.From, start: time.Now(),
	}
	ex.bugPos.Store(total)
	for m, name := range members {
		newSched, err := lookupScheduler(name)
		if err != nil {
			return nil, err
		}
		s := newSched()
		_, adaptive := s.(LengthHinted)
		_, feedback := s.(FeedbackScheduler)
		// A single-scheduler plan uses the run seed directly; portfolio
		// members derive independent base seeds from their index.
		seed := o.Seed
		if len(o.Portfolio) > 0 {
			seed = memberSeed(o.Seed, m)
		}
		ex.members[m] = member{newSched: newSched, seed: seed, adaptive: adaptive, feedback: feedback}
		ex.stats[m].Scheduler = name
		if feedback && ex.corpus == nil {
			ex.corpus = NewCorpus(0)
		}
	}
	ex.workers = int(min(int64(o.Workers), sh.To-sh.From))

	ex.calibrate()
	ex.drain()
	return ex, nil
}

// bound is the pruning bound. It only ever decreases: bugPos is lowered
// under mu, Stop is contractually non-increasing.
func (ex *explored) bound() int64 {
	b := ex.bugPos.Load()
	if ex.sh.Stop != nil {
		b = min(b, ex.sh.Stop())
	}
	return b
}

// newClaimer builds a claimer on pool; its instances are the caller's to
// fill in.
func (ex *explored) newClaimer(pool *execPool) *claimer {
	c := &claimer{pool: pool, scheds: make([]Scheduler, ex.nm)}
	c.cfg = ex.o.runtimeConfig(ex.t, false)
	// With one claimer and no external Stop, positions are visited in
	// increasing order and nothing can lower the bound below the one in
	// flight, so the abort predicate — polled at every scheduling step —
	// stays nil.
	if ex.workers > 1 || ex.sh.Stop != nil {
		c.cfg.abort = func() bool { return c.cur >= ex.bound() }
	}
	return c
}

// run resolves position g on c with sched and returns its step count and
// whether the execution completed without a violation.
// cand, when non-nil, receives the execution as a corpus entry if its
// coverage is novel against the window's frozen corpus. An execution
// aborted in flight was superseded by a lower bound and contributes nothing.
func (ex *explored) run(c *claimer, sched Scheduler, g int64, cand *CorpusCandidate) (int64, bool) {
	m, i := int(g%ex.nm), int(g/ex.nm)
	seed := execSeed(ex.members[m].seed, i)
	sched.Prepare(seed, ex.o.MaxSteps)
	c.cur = g
	cfg := c.cfg
	cfg.seed, cfg.lengthHint = seed, ex.members[m].lengthHint
	r := c.pool.runtime(sched, cfg)
	var t0 time.Time
	if ex.timed {
		t0 = time.Now()
	}
	rep := r.execute(ex.t)
	var busy time.Duration
	if ex.timed {
		busy = time.Since(t0)
	}
	steps := int64(r.steps)

	ex.mu.Lock()
	ex.stats[m].Elapsed += busy
	if !r.aborted {
		if rep != nil && g < ex.bugPos.Load() {
			ex.bugPos.Store(g)
			rep.Trace = newTrace(ex.t.Name, sched.Name(), seed, ex.o.EffectiveFaults(ex.t), r.dec.decode())
			rep.Iteration = i
			ex.bug = rep
		}
		ex.fold(g, steps)
	}
	ex.mu.Unlock()
	if r.aborted || rep != nil {
		return steps, false
	}
	// has() reads the window's frozen snapshot; duplicates within one
	// window are resolved at the merge (lowest position wins). full() is a
	// cheap pre-filter — the merge re-checks capacity.
	if cand != nil {
		if fp := r.Fingerprint(); !ex.corpus.has(fp) && !ex.corpus.full() {
			*cand = CorpusCandidate{Fingerprint: fp, Position: g, Decisions: r.dec.decode()}
		}
	}
	return steps, true
}

// fold records that position g resolved with steps and
// advances the frontier over the contiguous resolved prefix of the range,
// adding each position it passes to its member's statistics. It never
// passes the lowest buggy position; what lies beyond it, or below the
// range (a calibration re-run for a position another shard owns), is
// dropped. Called under mu.
func (ex *explored) fold(g, steps int64) {
	end := min(ex.sh.To, ex.bugPos.Load()+1)
	if g < ex.frontier || g >= end {
		return
	}
	if g > ex.frontier {
		if ex.pending == nil {
			ex.pending = make(map[int64]int64)
		}
		ex.pending[g] = steps
		return
	}
	for {
		ms := &ex.stats[g%ex.nm]
		ms.Executions++
		ms.TotalSteps += steps
		g++
		ex.frontier = g
		if g >= end {
			return
		}
		var ok bool
		if steps, ok = ex.pending[g]; !ok {
			return
		}
		delete(ex.pending, g)
	}
}

// calibrate runs position m (member m, iteration 0) of each adaptive
// member, owned or not, and pins its step count as the member's length
// hint. It runs corpus-less and records no candidate — iteration 0 has no
// corpus to mutate anyway. A shard that does not own the position but holds
// one of the member's re-runs it: the hint is a pure function of the plan,
// so every shard pins the same one.
func (ex *explored) calibrate() {
	cal := ex.newClaimer(nil)
	for m := range ex.members {
		mb, g := &ex.members[m], int64(m)
		if !mb.adaptive || g >= ex.bound() {
			continue
		}
		if (g < ex.sh.From || g >= ex.sh.To) && firstPosOfMember(m, ex.nm, ex.sh.From) >= ex.sh.To {
			continue // the range holds no position of this member
		}
		if steps, ok := ex.run(cal, mb.newSched(), g, nil); ok {
			// A run that cooled in the tail past the bound estimates the bound.
			mb.lengthHint = min(int(steps), ex.o.MaxSteps)
		}
	}
}

// drain builds the claimers and runs them over the range, one generation
// window at a time. Claimers are built after the hints are pinned, and each
// of their instances gets its member's hint and the corpus before its first
// execution; instances and execution pools persist across windows.
func (ex *explored) drain() {
	claimers := make([]*claimer, ex.workers)
	for w := range claimers {
		c := ex.newClaimer(newExecPool(ex.o))
		for m, mb := range ex.members {
			s := mb.newSched()
			if mb.lengthHint > 0 {
				s.(LengthHinted).SetLengthHint(mb.lengthHint)
			}
			if mb.feedback {
				s.(FeedbackScheduler).AttachCorpus(ex.corpus)
			}
			c.scheds[m] = s
		}
		claimers[w] = c
	}
	defer func() {
		for _, c := range claimers {
			c.pool.release()
		}
	}()

	// cands holds the window's novel executions by position offset, so the
	// barrier merge runs in plan order; a slot with no decisions holds none.
	gen := int64(feedbackRoundSize) * ex.nm
	var cands []CorpusCandidate
	if ex.corpus != nil {
		cands = make([]CorpusCandidate, gen)
	}
	for wf := ex.sh.From; wf < ex.sh.To && wf < ex.bound(); {
		wt := ex.sh.To
		if ex.corpus != nil {
			wt = min(wt, (wf/gen+1)*gen)
			clear(cands)
		}
		ex.next.Store(wf)
		if len(claimers) == 1 {
			// The lone claimer runs on the calling goroutine.
			ex.claim(claimers[0], wf, wt, cands)
		} else {
			var wg sync.WaitGroup
			for _, c := range claimers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ex.claim(c, wf, wt, cands)
				}()
			}
			wg.Wait()
		}

		// The claimers have drained: ex.bug and the candidates are
		// quiescent. A window that ends with a bug does not merge — its
		// later positions are non-canonical — so the corpus stays the last
		// fully merged snapshot.
		if ex.bug != nil {
			return
		}
		for _, cd := range cands {
			ex.corpus.Add(cd.Fingerprint, int(cd.Position), cd.Decisions)
		}
		wf = wt
	}
}

// claim drains the window [wf, wt) on c. This is the loop.
func (ex *explored) claim(c *claimer, wf, wt int64, cands []CorpusCandidate) {
	for {
		g := ex.next.Add(1) - 1
		if g >= wt || g >= ex.bound() {
			return
		}
		m := g % ex.nm
		if g < ex.nm && ex.members[m].adaptive {
			continue // resolved by calibration
		}
		var cand *CorpusCandidate
		if cands != nil {
			cand = &cands[g-wf]
		}
		ex.run(c, c.scheds[m], g, cand)
	}
}

// firstPosOfMember returns the lowest global position >= from that belongs
// to member m in an nm-member plan.
func firstPosOfMember(m int, nm, from int64) int64 {
	return from + (int64(m)-from%nm+nm)%nm
}
