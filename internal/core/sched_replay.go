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

func (s *replayScheduler) Prepare(_ int64, _ int) bool {
	// A replay scheduler runs exactly one execution.
	if s.pos > 0 {
		return false
	}
	return true
}

func (s *replayScheduler) next(kind DecisionKind) Decision {
	if s.pos >= len(s.decisions) {
		panic(replayDivergence{msg: fmt.Sprintf("program asked for a %q decision beyond the %d recorded", byte(kind), len(s.decisions))})
	}
	d := s.decisions[s.pos]
	s.pos++
	if d.Kind != kind {
		panic(replayDivergence{msg: fmt.Sprintf("decision %d: program asked for %q, trace holds %s", s.pos-1, byte(kind), d)})
	}
	return d
}

func (s *replayScheduler) NextMachine(enabled []MachineID, _ MachineID) MachineID {
	d := s.next(DecisionSchedule)
	for _, id := range enabled {
		if id == d.Machine {
			return id
		}
	}
	panic(replayDivergence{msg: fmt.Sprintf("decision %d: machine %d not enabled (enabled: %v)", s.pos-1, d.Machine, enabled)})
}

func (s *replayScheduler) NextBool() bool { return s.next(DecisionBool).Bool }

func (s *replayScheduler) NextInt(n int) int {
	checkIntBound("replay", n)
	d := s.next(DecisionInt)
	if d.Int >= n {
		panic(replayDivergence{msg: fmt.Sprintf("decision %d: int choice %d out of range %d", s.pos-1, d.Int, n)})
	}
	return d.Int
}

// NextFault implements FaultScheduler by feeding back the recorded fault
// decisions, with the same strictness as the data kinds: a fault choice
// the program presents must match the recorded kind, subject and outcome
// space, or the replay diverges.
func (s *replayScheduler) NextFault(c FaultChoice) int {
	switch c.Kind {
	case FaultTimer:
		d := s.next(DecisionTimer)
		if d.Machine != c.Machine {
			panic(replayDivergence{msg: fmt.Sprintf("decision %d: timer choice for machine %d, trace holds %s", s.pos-1, c.Machine, d)})
		}
		if d.Bool {
			return 1
		}
		return 0
	case FaultCrash:
		d := s.next(DecisionCrash)
		if d.Machine == NoMachine {
			return 0
		}
		// Resolve the recorded victim, not its recorded index: a replay
		// must crash the machine the trace names or diverge loudly, even
		// if the candidate set shifted under system nondeterminism.
		for i, id := range c.Candidates {
			if id == d.Machine {
				return i + 1
			}
		}
		panic(replayDivergence{msg: fmt.Sprintf("decision %d: recorded crash victim %d is not a live candidate (candidates %v)", s.pos-1, d.Machine, c.Candidates)})
	case FaultPersist:
		d := s.next(DecisionPersist)
		if d.Machine != c.Machine {
			panic(replayDivergence{msg: fmt.Sprintf("decision %d: persist choice for machine %d, trace holds %s", s.pos-1, c.Machine, d)})
		}
		if d.Int < 0 || d.Int >= c.N {
			panic(replayDivergence{msg: fmt.Sprintf("decision %d: recorded persist outcome %d out of range %d (staged-write count changed)", s.pos-1, d.Int, c.N)})
		}
		return d.Int
	case FaultDeliver:
		d := s.next(DecisionDeliver)
		if d.Machine != c.Machine {
			panic(replayDivergence{msg: fmt.Sprintf("decision %d: delivery choice for machine %d, trace holds %s", s.pos-1, c.Machine, d)})
		}
		for i, o := range c.Outcomes {
			if int(o) == d.Int {
				return i
			}
		}
		panic(replayDivergence{msg: fmt.Sprintf("decision %d: recorded delivery outcome %s not affordable here (outcomes %v)", s.pos-1, DeliveryOutcome(d.Int), c.Outcomes)})
	default:
		panic(replayDivergence{msg: fmt.Sprintf("decision %d: unknown fault kind %v", s.pos, c.Kind)})
	}
}
