package core

import "math/rand"

// mutationalScheduler is the coverage-guided exploration strategy: it
// replays a prefix of a corpus entry (an execution that reached a novel
// coverage fingerprint, see Corpus) and re-randomizes everything after
// the cut. The intuition is classic mutational fuzzing transplanted to
// schedules: an interleaving that drove the system into a rare state is a
// better starting point for finding the bug *behind* that state than a
// fresh uniform draw, because the prefix replays the hard part for free.
//
// Splicing is lenient where trace replay is strict: the mutated suffix
// changes what the program asks for, so as soon as a recorded decision no
// longer fits the live execution (wrong kind, machine not enabled, value
// out of range) the scheduler abandons the prefix and answers randomly
// from there on — a divergence here is expected, not an error.
//
// With no corpus attached (or an empty one) the scheduler degenerates to
// the uniform random scheduler, which is also exactly how it behaves on
// iteration 0 of a run. Every decision remains a pure function of
// (Prepare seed, corpus snapshot, call sequence), so the engine's
// determinism and replay contracts hold — the corpus snapshot itself is
// kept deterministic by the engine's generation barriers (see corpus.go).
type mutationalScheduler struct {
	rng    *rand.Rand
	corpus *Corpus

	// prefix is the decision slice being replayed this execution (nil
	// once abandoned or exhausted); pos is the next decision to feed.
	prefix []Decision
	pos    int
}

// NewMutationalScheduler returns the coverage-guided mutational
// scheduler. It only becomes more than a random scheduler when the
// engine attaches a corpus (which it does for every factory whose spec
// declares Feedback).
func NewMutationalScheduler() Scheduler { return &mutationalScheduler{} }

func (s *mutationalScheduler) Name() string { return "mutational" }

// AttachCorpus implements FeedbackScheduler.
func (s *mutationalScheduler) AttachCorpus(c *Corpus) { s.corpus = c }

func (s *mutationalScheduler) Prepare(seed int64, _ int) bool {
	s.rng = reseed(s.rng, seed)
	s.prefix = nil
	s.pos = 0
	if s.corpus == nil || s.corpus.Len() == 0 {
		return true
	}
	// One execution in four explores from scratch even with a corpus
	// available: pure mutation would only ever refine behaviors already
	// seen, never discover ones no recorded prefix reaches.
	if s.rng.Intn(4) == 0 {
		return true
	}
	_, decisions := s.corpus.Entry(s.rng.Intn(s.corpus.Len()))
	if len(decisions) == 0 {
		return true
	}
	// Cut uniformly: short prefixes barely constrain the execution, long
	// ones replay almost all of it and perturb only the tail; both ends
	// are useful and neither dominates.
	s.prefix = decisions[:1+s.rng.Intn(len(decisions))]
	return true
}

// replayNext returns the next recorded decision if the replay is still
// live and the decision has the kind the program is asking for; any
// mismatch abandons the prefix for the rest of the execution.
func (s *mutationalScheduler) replayNext(kind DecisionKind) (Decision, bool) {
	if s.prefix == nil {
		return Decision{}, false
	}
	if s.pos >= len(s.prefix) {
		s.prefix = nil
		return Decision{}, false
	}
	d := s.prefix[s.pos]
	if d.Kind != kind {
		s.prefix = nil
		return Decision{}, false
	}
	s.pos++
	return d, true
}

func (s *mutationalScheduler) NextMachine(enabled []MachineID, _ MachineID) MachineID {
	if d, ok := s.replayNext(DecisionSchedule); ok {
		for _, id := range enabled {
			if id == d.Machine {
				return id
			}
		}
		s.prefix = nil
	}
	return enabled[s.rng.Intn(len(enabled))]
}

func (s *mutationalScheduler) NextBool() bool {
	if d, ok := s.replayNext(DecisionBool); ok {
		return d.Bool
	}
	return s.rng.Intn(2) == 0
}

func (s *mutationalScheduler) NextInt(n int) int {
	checkIntBound("mutational", n)
	if d, ok := s.replayNext(DecisionInt); ok {
		if d.Int < n {
			return d.Int
		}
		s.prefix = nil
	}
	return s.rng.Intn(n)
}

// NextFault implements FaultScheduler by splicing the recorded fault
// decisions with the same leniency as the data kinds: a recorded outcome
// that no longer fits the live fault choice abandons the prefix.
func (s *mutationalScheduler) NextFault(c FaultChoice) int {
	var kind DecisionKind
	switch c.Kind {
	case FaultTimer:
		kind = DecisionTimer
	case FaultCrash:
		kind = DecisionCrash
	case FaultDeliver:
		kind = DecisionDeliver
	case FaultPersist:
		kind = DecisionPersist
	default:
		return s.rng.Intn(c.N)
	}
	if d, ok := s.replayNext(kind); ok {
		switch c.Kind {
		case FaultTimer:
			if d.Machine == c.Machine {
				if d.Bool {
					return 1
				}
				return 0
			}
		case FaultCrash:
			if d.Machine == NoMachine {
				return 0
			}
			for i, id := range c.Candidates {
				if id == d.Machine {
					return i + 1
				}
			}
		case FaultDeliver:
			if d.Machine == c.Machine {
				for i, o := range c.Outcomes {
					if int(o) == d.Int {
						return i
					}
				}
			}
		case FaultPersist:
			if d.Machine == c.Machine && d.Int >= 0 && d.Int < c.N {
				return d.Int
			}
		}
		s.prefix = nil
	}
	return s.rng.Intn(c.N)
}
