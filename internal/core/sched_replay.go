package core

import "fmt"

// replayDivergence is panicked (on whichever stack consulted the
// scheduler; execute and host recover it) when a recorded trace
// cannot be replayed against the current program, which indicates the
// program is not deterministic or the trace belongs to a different test.
type replayDivergence struct{ msg string }

func (d replayDivergence) Error() string { return "core: replay divergence: " + d.msg }

// replayScheduler feeds back a recorded decision sequence, reproducing the
// recorded execution exactly. Any mismatch between the trace and the
// choices the program asks for is a divergence error.
type replayScheduler struct {
	decisions []Decision
	pos       int
}

func newReplayScheduler(t *Trace) *replayScheduler {
	return &replayScheduler{decisions: t.Decisions}
}

func (s *replayScheduler) Name() string { return "replay" }

// Prepare does nothing: a replay scheduler serves exactly one execution,
// from its first recorded decision.
func (s *replayScheduler) Prepare(_ int64, _ int) {}

// next consumes the recorded decision that answers the choice the program
// presents now, a want-kind one.
func (s *replayScheduler) next(want DecisionKind) Decision {
	if s.pos >= len(s.decisions) {
		panic(replayDivergence{msg: fmt.Sprintf("program asked for a %q decision beyond the %d recorded", byte(want), len(s.decisions))})
	}
	s.pos++
	return s.decisions[s.pos-1]
}

// fits turns a misfit between the decision just consumed and the live choice
// (decision.go) into a divergence: replay is strict.
func (s *replayScheduler) fits(misfit string) {
	if misfit != "" {
		panic(replayDivergence{msg: fmt.Sprintf("decision %d: %s", s.pos-1, misfit)})
	}
}

func (s *replayScheduler) NextMachine(enabled []MachineID) MachineID {
	id, misfit := s.next(DecisionSchedule).machine(enabled)
	s.fits(misfit)
	return id
}

func (s *replayScheduler) NextBool() bool {
	b, misfit := s.next(DecisionBool).boolean()
	s.fits(misfit)
	return b
}

func (s *replayScheduler) NextInt(n int) int {
	v, misfit := s.next(DecisionInt).integer(n)
	s.fits(misfit)
	return v
}

// NextFault implements Scheduler by feeding back the recorded fault
// decisions, with the same strictness as the data kinds: a fault choice
// the program presents must match the recorded kind, subject and outcome
// space, or the replay diverges.
func (s *replayScheduler) NextFault(c FaultChoice) int {
	out, misfit := c.outcome(s.next(faultKinds[c.Kind].decision))
	s.fits(misfit)
	return out
}
