package core

import "sort"

// dfsScheduler enumerates the full schedule tree depth-first, one branch
// per execution. It is exhaustive and therefore only practical for very
// small systems, but it is invaluable for validating the runtime itself:
// tests assert that the number of distinct schedules of a tiny program
// matches the hand-computed interleaving count.
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
	done bool
}

type dfsNode struct {
	choice   int // index chosen at this point
	branches int // number of alternatives observed
}

// NewDFSScheduler returns the exhaustive depth-first scheduler.
func NewDFSScheduler() Scheduler { return &dfsScheduler{} }

func (s *dfsScheduler) Name() string { return "dfs" }

func (s *dfsScheduler) Prepare(_ int64, _ int) bool {
	if s.done {
		return false
	}
	if s.path != nil {
		// Backtrack: advance the deepest node with an untried branch.
		i := len(s.path) - 1
		for i >= 0 && s.path[i].choice == s.path[i].branches-1 {
			i--
		}
		if i < 0 {
			s.done = true
			return false
		}
		s.path[i].choice++
		s.path = s.path[:i+1]
	} else {
		s.path = []dfsNode{}
	}
	s.pos = 0
	return true
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

func (s *dfsScheduler) NextInt(n int) int {
	checkIntBound("dfs", n)
	return s.pick(n)
}

// NextFault implements Scheduler: fault choice points are ordinary
// branch points of the enumeration, so dfs exhaustively covers every
// affordable fault outcome (benign branch first).
func (s *dfsScheduler) NextFault(c FaultChoice) int { return s.pick(c.N) }
