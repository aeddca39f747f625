package core

import (
	"math/rand"
	"slices"
)

// delayScheduler implements randomized delay-bounded scheduling (Emmi,
// Qadeer, Rakamarić, POPL 2011), a third exploration strategy beyond the
// paper's two: execution follows a deterministic baseline (round-robin by
// machine ID) except at d randomly chosen steps, where the machine that
// would run is "delayed" and the baseline continues without it. Small
// delay budgets cover a surprising number of bugs because many bugs need
// only a few out-of-order steps.
type delayScheduler struct {
	budget int
	rng    *rand.Rand

	// delays holds the budget step numbers at which the baseline choice
	// is delayed (duplicates are harmless).
	delays []int
	step   int
	last   MachineID
	// delayed is indexed by MachineID and grown when a machine is first
	// delayed; IDs beyond its length are not delayed.
	delayed []bool
	// prevSteps is the previous execution's observed length; delay points
	// are sampled within it so they actually land inside the execution
	// (the same program-length adaptation as the PCT scheduler).
	prevSteps int
	// lengthHint, when positive, replaces prevSteps with an engine-shared
	// estimate so Prepare becomes a pure function of (seed, maxSteps).
	lengthHint int
}

// NewDelayScheduler returns a delay-bounded scheduler with the given
// number of delay points per execution (a typical budget is 2).
func NewDelayScheduler(budget int) Scheduler {
	return &delayScheduler{budget: budget}
}

func (s *delayScheduler) Name() string { return "delay" }

func (s *delayScheduler) Prepare(seed int64, maxSteps int) bool {
	s.rng = reseed(s.rng, seed)
	s.prevSteps = s.step
	bound := s.lengthHint
	if bound <= 0 {
		bound = s.prevSteps
	}
	if bound < 10 {
		bound = maxSteps
	}
	s.delays = s.delays[:0]
	for i := 0; i < s.budget; i++ {
		s.delays = append(s.delays, 1+s.rng.Intn(bound))
	}
	s.step = 0
	s.last = NoMachine
	s.delayed = s.delayed[:0]
	return true
}

// SetLengthHint pins the program-length estimate used to place delay
// points, detaching the scheduler from its own execution history.
func (s *delayScheduler) SetLengthHint(steps int) { s.lengthHint = steps }

// pickBaseline returns the round-robin choice among enabled machines that
// are not currently delayed; if all are delayed, the delay set is cleared
// (the delayed machines have "caught up to the front").
func (s *delayScheduler) pickBaseline(enabled []MachineID) MachineID {
	candidate := NoMachine
	for _, id := range enabled {
		if int(id) >= len(s.delayed) || !s.delayed[id] {
			if id > s.last && (candidate == NoMachine || candidate <= s.last) {
				candidate = id
			} else if candidate == NoMachine || (candidate <= s.last && id < candidate) ||
				(candidate > s.last && id > s.last && id < candidate) {
				candidate = id
			}
		}
	}
	if candidate == NoMachine {
		s.delayed = s.delayed[:0]
		return s.pickBaseline(enabled)
	}
	return candidate
}

func (s *delayScheduler) NextMachine(enabled []MachineID, _ MachineID) MachineID {
	s.step++
	choice := s.pickBaseline(enabled)
	if slices.Contains(s.delays, s.step) {
		// Delay the machine that would have run and advance past it.
		for int(choice) >= len(s.delayed) {
			s.delayed = append(s.delayed, false)
		}
		s.delayed[choice] = true
		choice = s.pickBaseline(enabled)
	}
	s.last = choice
	if int(choice) < len(s.delayed) {
		s.delayed[choice] = false
	}
	return choice
}

func (s *delayScheduler) NextBool() bool { return s.rng.Intn(2) == 0 }

func (s *delayScheduler) NextInt(n int) int {
	checkIntBound("delay", n)
	return s.rng.Intn(n)
}

// NextFault implements FaultScheduler. Like pct, the delay scheduler
// counts fault choice points as steps, so its delay points double as
// fault-injection candidates: a delay point landing on a fault point
// spends the budget forcing a faulty outcome; elsewhere the outcome is
// uniform.
func (s *delayScheduler) NextFault(c FaultChoice) int {
	s.step++
	if slices.Contains(s.delays, s.step) {
		return 1 + s.rng.Intn(c.N-1)
	}
	return s.rng.Intn(c.N)
}
