package core

import (
	"sort"
	"testing"
	"time"
)

// dfsScheduler enumerates the full schedule tree depth-first, one branch
// per execution. It is exhaustive and therefore only practical for very
// small systems, but it is invaluable for validating the runtime itself:
// tests assert that the number of distinct schedules of a tiny program
// matches the hand-computed interleaving count. It is not registered: it
// backtracks through the previous execution, so it runs only under
// exploreDFS, which visits the positions in order on one instance.
//
// Implementation: the scheduler keeps the decision path of the previous
// execution together with the branching factor observed at each point. To
// prepare the next execution it backtracks — it drops maximal trailing
// decisions and advances the deepest decision that still has an untried
// branch. During the execution it replays the prefix and extends the path
// with first-branch choices.
type dfsScheduler struct {
	path []dfsNode
	pos  int
	// done is set by the Prepare that finds the tree spent.
	done bool
}

type dfsNode struct {
	choice   int // index chosen at this point
	branches int // number of alternatives observed
}

func (s *dfsScheduler) Name() string { return "dfs" }

func (s *dfsScheduler) Prepare(_ int64, _ int) {
	if s.path != nil {
		// Backtrack: advance the deepest node with an untried branch.
		i := len(s.path) - 1
		for i >= 0 && s.path[i].choice == s.path[i].branches-1 {
			i--
		}
		if i < 0 {
			s.done = true
			return
		}
		s.path[i].choice++
		s.path = s.path[:i+1]
	} else {
		s.path = []dfsNode{}
	}
	s.pos = 0
}

// pick records (or replays) a decision point with n branches and returns
// the branch index to take.
func (s *dfsScheduler) pick(n int) int {
	if s.pos < len(s.path) {
		c := s.path[s.pos]
		s.pos++
		// The branching factor can legitimately differ from the previous
		// execution only below a changed prefix; at a replayed prefix it
		// must match. Clamp defensively so a nondeterministic test fails
		// loudly elsewhere rather than panicking here.
		if c.choice >= n {
			c.choice = n - 1
		}
		return c.choice
	}
	s.path = append(s.path, dfsNode{choice: 0, branches: n})
	s.pos++
	return 0
}

func (s *dfsScheduler) NextMachine(enabled []MachineID) MachineID {
	if !sort.SliceIsSorted(enabled, func(i, j int) bool { return enabled[i] < enabled[j] }) {
		panic("core: dfs scheduler requires sorted enabled set")
	}
	return enabled[s.pick(len(enabled))]
}

func (s *dfsScheduler) NextBool() bool { return s.pick(2) == 1 }

func (s *dfsScheduler) NextInt(n int) int { return s.pick(n) }

// NextFault implements Scheduler: fault choice points are ordinary
// branch points of the enumeration, so dfs exhaustively covers every
// affordable fault outcome (benign branch first).
func (s *dfsScheduler) NextFault(c FaultChoice) int { return s.pick(c.N) }

// exploreDFS enumerates t's schedule tree under o: position i of the plan
// is the tree's i-th leaf, run on one pooled runtime (unpooled under
// NoReuse) and seeded with execSeed(o.Seed, i) as Explore seeds it, so the
// fair tail of a leaf is the one the engine would run. It stops at the
// first bug, whose trace it records as the engine records a winner, at the
// iteration budget, or when the tree is spent, and reports the last as
// exhausted. o.Scheduler, o.Portfolio and o.Workers are ignored.
func exploreDFS(t Test, o Options) (res Result, exhausted bool) {
	o.Scheduler, o.Portfolio = "", nil
	o = resolved(o)
	start := time.Now()
	cfg := o.runtimeConfig(t, false)
	sched := &dfsScheduler{}
	pool := newExecPool(o)
	defer pool.release()
	for i := 0; i < o.Iterations; i++ {
		cfg.seed = execSeed(o.Seed, i)
		if sched.Prepare(cfg.seed, o.MaxSteps); sched.done {
			exhausted = true
			break
		}
		r := pool.runtime(sched, cfg)
		rep := r.execute(t)
		res.Executions++
		res.TotalSteps += int64(r.steps)
		if rep != nil {
			rep.Trace = newTrace(t.Name, sched.Name(), cfg.seed, o.EffectiveFaults(t), r.dec.decode())
			rep.Iteration = i
			res.BugFound, res.Report, res.Choices = true, rep, len(rep.Trace.Decisions)
			break
		}
	}
	res.Elapsed = time.Since(start)
	if res.BugFound && !o.NoReplayLog {
		attachReplayLog(t, o, res.Report)
	}
	return res, exhausted
}

// exploreWith is MustExplore, except that Scheduler "dfs" runs o under the
// enumeration oracle (exploreDFS): the tests that hold a property of every
// scheduler hold it of dfs's leaves too.
func exploreWith(t Test, o Options) Result {
	if o.Scheduler == "dfs" {
		res, _ := exploreDFS(t, o)
		return res
	}
	return MustExplore(t, o)
}

// newScheduler builds a fresh instance of the named scheduler, pinned to
// hint when it is adaptive and hint is positive, as the loop builds a
// calibrated member's: a registered one, or "dfs", the oracle's
// enumeration. It is the tests' one door to such an instance.
func newScheduler(tb testing.TB, name string, hint int) Scheduler {
	tb.Helper()
	if name == "dfs" {
		return &dfsScheduler{}
	}
	newSched, err := lookupScheduler(name)
	if err != nil {
		tb.Fatal(err)
	}
	s := newSched()
	if h, ok := s.(LengthHinted); ok && hint > 0 {
		h.SetLengthHint(hint)
	}
	return s
}

// treeSpent reports that s is the oracle's dfs scheduler and its last
// Prepare found the tree spent.
func treeSpent(s Scheduler) bool {
	d, ok := s.(*dfsScheduler)
	return ok && d.done
}
