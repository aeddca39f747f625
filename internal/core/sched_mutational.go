package core

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
	draws
	corpus *Corpus

	// prefix is the decision slice being replayed this execution (nil
	// once abandoned or exhausted); pos is the next decision to feed.
	prefix []Decision
	pos    int
}

// NewMutationalScheduler returns the coverage-guided mutational
// scheduler. It only becomes more than a random scheduler when the
// engine attaches a corpus, which it does to every instance of a
// FeedbackScheduler member.
func NewMutationalScheduler() Scheduler {
	return &mutationalScheduler{draws: draws{name: "mutational"}}
}

// AttachCorpus implements FeedbackScheduler.
func (s *mutationalScheduler) AttachCorpus(c *Corpus) { s.corpus = c }

func (s *mutationalScheduler) Prepare(seed int64, _ int) {
	s.reseed(seed)
	s.prefix = nil
	s.pos = 0
	if s.corpus == nil || s.corpus.Len() == 0 {
		return
	}
	// One execution in four explores from scratch even with a corpus
	// available: pure mutation would only ever refine behaviors already
	// seen, never discover ones no recorded prefix reaches.
	if s.rng.Intn(4) == 0 {
		return
	}
	_, decisions := s.corpus.Entry(s.rng.Intn(s.corpus.Len()))
	if len(decisions) == 0 {
		return
	}
	// Cut uniformly: short prefixes barely constrain the execution, long
	// ones replay almost all of it and perturb only the tail; both ends
	// are useful and neither dominates.
	s.prefix = decisions[:1+s.rng.Intn(len(decisions))]
}

// next consumes the prefix's next decision; ok is false once the prefix is
// used up or abandoned.
func (s *mutationalScheduler) next() (d Decision, ok bool) {
	if s.pos >= len(s.prefix) {
		s.prefix = nil
		return Decision{}, false
	}
	s.pos++
	return s.prefix[s.pos-1], true
}

// fits reports whether the decision just consumed answered the live choice;
// a misfit (decision.go) abandons the prefix for the rest of the execution.
func (s *mutationalScheduler) fits(misfit string) bool {
	if misfit != "" {
		s.prefix = nil
	}
	return misfit == ""
}

func (s *mutationalScheduler) NextMachine(enabled []MachineID) MachineID {
	if d, ok := s.next(); ok {
		if id, misfit := d.machine(enabled); s.fits(misfit) {
			return id
		}
	}
	return enabled[s.rng.Intn(len(enabled))]
}

func (s *mutationalScheduler) NextBool() bool {
	if d, ok := s.next(); ok {
		if b, misfit := d.boolean(); s.fits(misfit) {
			return b
		}
	}
	return s.draws.NextBool()
}

func (s *mutationalScheduler) NextInt(n int) int {
	if d, ok := s.next(); ok {
		if v, misfit := d.integer(n); s.fits(misfit) {
			return v
		}
	}
	return s.draws.NextInt(n)
}

// NextFault implements Scheduler by splicing the recorded fault
// decisions with the same leniency as the data kinds.
func (s *mutationalScheduler) NextFault(c FaultChoice) int {
	if d, ok := s.next(); ok {
		if out, misfit := c.outcome(d); s.fits(misfit) {
			return out
		}
	}
	return s.draws.NextFault(c)
}
