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
// one execution pool. A sequential member (dfs) backtracks through its own
// previous execution, so its positions are walked in order by a lane: one
// more claimer with a private counter that strides nm. Whether the lane is
// the whole run or one member of a portfolio is the same code.
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
// pinned on the member's factory as the shared program-length estimate
// (SchedulerFactory.WithLengthHint) — that is what makes every later
// position of the member a pure function of its seed.
//
// Windows. With a feedback member the range is drained in generation
// windows of feedbackRoundSize iterations (feedbackRoundSize*nm
// positions, aligned to the plan, not to the range): the corpus is frozen
// within a window and grows only at the barrier, in position order, so the
// corpus a position observes is a function of its generation alone.
// Without one the whole range is a single window.
//
// Statistics. Each claimer appends (position, steps) to a private log, so
// bookkeeping is proportional to the executions done, never to the budget
// requested; Executions, TotalSteps, per-member statistics, exhaustion
// and a shard's resolved prefix are all derived from the logs after the
// drain (tally, resolvedTo).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// logEntry records that a claimer resolved position pos: with an execution
// of steps scheduling steps, or — steps == refused — with the member's
// scheduler declining it because its schedule space ran out.
type logEntry struct {
	pos   int64
	steps int64
}

const refused = -1

// candidate is one window-local novel-fingerprint recording, indexed by
// position offset within the window so the barrier merge runs in plan
// order.
type candidate struct {
	fp        uint64
	decisions []Decision
	ok        bool
}

// claimer is the private state of one claiming goroutine: a pool worker
// (stride 1 on the shared counter, an instance of every non-sequential
// member) or a sequential member's lane (stride nm on its own counter,
// that member's one instance). Nothing here is shared, so it needs no
// lock; the logs are read only after the claimers drain.
type claimer struct {
	next   *atomic.Int64
	stride int64
	lane   int              // the sequential member a lane walks; -1 for a pool worker
	scheds []FaultScheduler // by member; nil where another claimer serves it
	pool   *execPool
	cfg    runtimeConfig
	cur    int64 // position in flight, read by cfg.abort
	log    []logEntry
	busy   []time.Duration // by member: time inside executions, when timed
	spent  bool            // a lane whose scheduler exhausted its space
}

// explored is what exploreRange hands its adapters: the raw outcome of
// draining a position range, from which Result and ShardResult are shaped.
type explored struct {
	start   time.Time
	members []string
	total   int64 // size of the whole plan
	// logs holds the calibration log and one log per claimer, each in
	// increasing position order.
	logs   [][]logEntry
	busy   []time.Duration // by member; nil unless timed
	bug    *BugReport
	bugPos int64 // lowest buggy position (total when bug is nil)
	hints  []int // adaptive length hints in effect, by member
	// corpus is the final exploration corpus and candidates the entries
	// this call merged into it, in position order; nil without a feedback
	// member.
	corpus     *Corpus
	candidates []CorpusCandidate
}

// exploreRange drains the positions [sh.From, sh.To) of the plan of o and
// reports the raw outcome. o is resolved (Options.Resolve) and the range
// lies within the plan; timed asks for per-member execution time.
func exploreRange(t Test, o Options, sh Shard, timed bool) (*explored, error) {
	ex := &explored{start: time.Now(), members: o.Members(), total: PlanSize(o)}
	nm := int64(len(ex.members))

	factories := make([]SchedulerFactory, nm)
	seeds := make([]int64, nm)
	feedback, lanes := false, 0
	for m, name := range ex.members {
		f, err := NewSchedulerFactory(name, o.PCTDepth)
		if err != nil {
			return nil, err
		}
		if f.Sequential() {
			if sh.From != 0 || sh.To != ex.total {
				return nil, &ConfigError{
					Field:  "Shard",
					Reason: fmt.Sprintf("scheduler %q enumerates its schedule space statefully and cannot explore a sub-range", name),
				}
			}
			lanes++
		}
		feedback = feedback || f.Feedback()
		factories[m] = f
		// A single-scheduler plan uses the run seed directly; portfolio
		// members derive independent base seeds from their index.
		seeds[m] = o.Seed
		if len(o.Portfolio) > 0 {
			seeds[m] = memberSeed(o.Seed, m)
		}
	}
	if feedback {
		ex.corpus = sh.Corpus
		if ex.corpus == nil {
			ex.corpus = newCorpus(o.CorpusSize)
		}
	}

	workers := int(min(int64(o.Workers), sh.To-sh.From))
	if lanes == len(factories) {
		workers = 0
	}

	var (
		bugPos atomic.Int64 // lowest buggy position so far (total = none)

		mu        sync.Mutex // guards ex.bug and completed, plus Progress calls
		completed int
	)
	bugPos.Store(ex.total)

	// bound is the pruning frontier. It only ever decreases: bugPos is
	// lowered under mu, Stop is contractually non-increasing.
	bound := func() int64 {
		b := bugPos.Load()
		if sh.Stop != nil {
			b = min(b, sh.Stop())
		}
		return b
	}
	// StopAfter: the range's first position always executes (with its
	// member's calibration); every other one is claimed only before the
	// deadline.
	pastDeadline := func() bool {
		return o.StopAfter > 0 && time.Since(ex.start) > o.StopAfter
	}

	// With one claimer and no external Stop, positions are visited in
	// increasing order and nothing can lower the bound below the one in
	// flight, so the abort predicate — polled at every scheduling step —
	// stays nil.
	pruning := workers+lanes > 1 || sh.Stop != nil
	newClaimer := func(next *atomic.Int64, lane int, pool *execPool) *claimer {
		c := &claimer{next: next, stride: 1, lane: lane, pool: pool, scheds: make([]FaultScheduler, nm)}
		if lane >= 0 {
			c.stride = nm
		}
		c.cfg = o.runtimeConfig(t, false)
		if pruning {
			c.cfg.abort = func() bool { return c.cur >= bound() }
		}
		if timed {
			c.busy = make([]time.Duration, nm)
		}
		return c
	}

	// run resolves position g on c with sched and returns what it logged —
	// the execution's step count, or refused — and whether the execution
	// completed without a violation. cand, when non-nil, receives the
	// execution's decisions if its coverage is novel against the window's
	// frozen corpus. An execution aborted in flight was superseded by a
	// lower bound and contributes nothing.
	run := func(c *claimer, sched FaultScheduler, g int64, cand *candidate) (int64, bool) {
		m, i := int(g%nm), int(g/nm)
		seed := execSeed(seeds[m], i)
		if !sched.Prepare(seed, o.MaxSteps) {
			c.log = append(c.log, logEntry{g, refused})
			return refused, false
		}
		c.cur = g
		r := c.pool.runtime(sched, c.cfg)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		rep := r.execute(t)
		if timed {
			c.busy[m] += time.Since(t0)
		}
		if r.aborted {
			return 0, false
		}
		steps := int64(r.steps)
		c.log = append(c.log, logEntry{g, steps})
		if o.Progress != nil {
			// Counted under the lock so Progress sees strictly increasing
			// counts across claimers.
			mu.Lock()
			completed++
			o.Progress(completed)
			mu.Unlock()
		}
		if rep != nil {
			mu.Lock()
			if g < bugPos.Load() {
				bugPos.Store(g)
				rep.Trace = newTrace(t.Name, sched.Name(), seed, o.EffectiveFaults(t), r.dec.decode())
				rep.Iteration = i
				ex.bug = rep
			}
			mu.Unlock()
			return steps, false
		}
		// has() reads the window's frozen snapshot; duplicates within one
		// window are resolved at the merge (lowest position wins). full()
		// is a cheap pre-filter — the merge re-checks capacity.
		if cand != nil {
			if fp := r.Fingerprint(); !ex.corpus.has(fp) && !ex.corpus.full() {
				*cand = candidate{fp: fp, decisions: r.dec.decode(), ok: true}
			}
		}
		return steps, true
	}

	// Calibration. Position m (member m, iteration 0) of each adaptive
	// member runs here, owned or not; it runs corpus-less and records no
	// candidate — iteration 0 has no corpus to mutate anyway. A shard that
	// does not own it can take the hint from an earlier result of the same
	// plan instead: the hint is a pure function of the plan.
	cal := newClaimer(nil, -1, nil)
	ex.hints = make([]int, nm)
	for m := range factories {
		g := int64(m)
		if !factories[m].Adaptive() || g >= bound() {
			continue
		}
		if g < sh.From || g >= sh.To {
			if sh.LengthHints != nil && sh.LengthHints[m] > 0 {
				ex.hints[m] = sh.LengthHints[m]
				factories[m] = factories[m].WithLengthHint(ex.hints[m])
				continue
			}
			if firstPosOfMember(m, nm, sh.From) >= sh.To {
				continue // the range holds no position of this member
			}
		}
		if g != sh.From%nm && pastDeadline() {
			continue // not the first position's member: the deadline applies
		}
		if steps, ok := run(cal, factories[m].New(), g, nil); ok {
			ex.hints[m] = int(steps)
			factories[m] = factories[m].WithLengthHint(int(steps))
		}
	}

	// Claimers are built after the hints are pinned (and the corpus
	// attached) so their instances come fully configured; instances and
	// execution pools persist across windows.
	var next atomic.Int64
	claimers := make([]*claimer, 0, workers+lanes)
	for m := range factories {
		if factories[m].Feedback() {
			factories[m] = factories[m].WithCorpus(ex.corpus)
		}
		if factories[m].Sequential() {
			lane := newClaimer(new(atomic.Int64), m, newExecPool(o))
			lane.scheds[m] = factories[m].New()
			claimers = append(claimers, lane)
		}
	}
	for w := 0; w < workers; w++ {
		c := newClaimer(&next, -1, newExecPool(o))
		for m := range factories {
			if !factories[m].Sequential() {
				c.scheds[m] = factories[m].New()
			}
		}
		claimers = append(claimers, c)
	}
	defer func() {
		for _, c := range claimers {
			c.pool.release()
		}
	}()

	gen := int64(feedbackRoundSize) * nm
	var cands []candidate
	if feedback {
		cands = make([]candidate, gen)
	}
	for wf := sh.From; wf < sh.To && wf < bound(); {
		wt := sh.To
		if feedback {
			wt = min(wt, (wf/gen+1)*gen)
			clear(cands)
		}
		next.Store(wf)
		for _, lane := range claimers[:lanes] {
			lane.next.Store(firstPosOfMember(lane.lane, nm, wf))
		}

		// claim drains the window on c. This is the loop.
		claim := func(c *claimer) {
			for !c.spent {
				g := c.next.Add(c.stride) - c.stride
				if g >= wt || g >= bound() {
					return
				}
				if g != sh.From && pastDeadline() {
					return
				}
				m := g % nm
				if c.scheds[m] == nil || (g < nm && factories[m].Adaptive()) {
					continue // a lane's position, or resolved by calibration
				}
				var cand *candidate
				if feedback {
					cand = &cands[g-wf]
				}
				if steps, _ := run(c, c.scheds[m], g, cand); steps == refused && c.lane >= 0 {
					c.spent = true
				}
			}
		}
		if len(claimers) == 1 {
			// The lone claimer runs on the calling goroutine.
			claim(claimers[0])
		} else {
			var wg sync.WaitGroup
			for _, c := range claimers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					claim(c)
				}()
			}
			wg.Wait()
		}

		// The claimers have drained: ex.bug and the candidates are
		// quiescent. A window that ends with a bug does not merge — its
		// later positions are non-canonical — so the corpus stays the last
		// fully merged snapshot.
		if ex.bug != nil {
			break
		}
		if feedback {
			for j, cd := range cands[:wt-wf] {
				if cd.ok && ex.corpus.add(cd.fp, int(wf)+j, cd.decisions) {
					ex.candidates = append(ex.candidates, CorpusCandidate{
						Fingerprint: cd.fp,
						Position:    wf + int64(j),
						Decisions:   cd.decisions,
					})
				}
			}
		}
		idle := workers == 0
		for _, lane := range claimers[:lanes] {
			idle = idle && lane.spent
		}
		if idle || pastDeadline() {
			break
		}
		wf = wt
	}

	ex.bugPos = bugPos.Load()
	ex.logs = append(ex.logs, cal.log)
	if timed {
		ex.busy = cal.busy
	}
	for _, c := range claimers {
		ex.logs = append(ex.logs, c.log)
		for m := range ex.busy {
			ex.busy[m] += c.busy[m]
		}
	}
	return ex, nil
}

// firstPosOfMember returns the lowest global position >= from that belongs
// to member m in an nm-member plan.
func firstPosOfMember(m int, nm, from int64) int64 {
	return from + (int64(m)-from%nm+nm)%nm
}

// tally derives the canonical per-member statistics from the logs: the
// executions at positions in [from, limit) — what a round-robin
// interleaving of the members performs between the two — and whether the
// member's scheduler ran out of schedules there.
func (ex *explored) tally(from, limit int64) []MemberStats {
	nm := int64(len(ex.members))
	stats := make([]MemberStats, nm)
	for m := range stats {
		stats[m].Scheduler = ex.members[m]
		if ex.busy != nil {
			stats[m].Elapsed = ex.busy[m]
		}
	}
	for _, log := range ex.logs {
		for _, e := range log {
			if e.pos < from || e.pos >= limit {
				continue
			}
			if ms := &stats[e.pos%nm]; e.steps == refused {
				ms.Exhausted = true
			} else {
				ms.Executions++
				ms.TotalSteps += e.steps
			}
		}
	}
	return stats
}

// resolvedTo returns the end of the contiguous resolved prefix of
// [from, limit): every position below it was logged — executed or refused —
// or belongs to a member whose scheduler had already run out of schedules.
func (ex *explored) resolvedTo(from, limit int64) int64 {
	nm := int64(len(ex.members))
	spentAt := make([]int64, nm)
	for m := range spentAt {
		spentAt[m] = ex.total
	}
	for _, log := range ex.logs {
		for _, e := range log {
			if e.steps == refused {
				spentAt[e.pos%nm] = min(spentAt[e.pos%nm], e.pos)
			}
		}
	}
	// Each log is in increasing position order, so one cursor per log
	// finds every position in a single pass.
	heads := make([]int, len(ex.logs))
	g := from
walk:
	for ; g < limit; g++ {
		for w, log := range ex.logs {
			for heads[w] < len(log) && log[heads[w]].pos < g {
				heads[w]++
			}
			if heads[w] < len(log) && log[heads[w]].pos == g {
				continue walk
			}
		}
		if g < spentAt[g%nm] {
			break
		}
	}
	return g
}
