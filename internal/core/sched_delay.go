package core

// delayScheduler implements randomized delay-bounded scheduling (Emmi,
// Qadeer, Rakamarić, POPL 2011), a third exploration strategy beyond the
// paper's two: execution follows a deterministic baseline (round-robin by
// machine ID) except at d randomly chosen steps (probes), where the machine
// that would run is "delayed" and the baseline continues without it. Small
// delay budgets cover a surprising number of bugs because many bugs need
// only a few out-of-order steps.
type delayScheduler struct {
	probes
	last MachineID
	// delayed is indexed by MachineID and grown when a machine is first
	// delayed; IDs beyond its length are not delayed.
	delayed []bool
}

// NewDelayScheduler returns a delay-bounded scheduler with the given
// number of delay points per execution (a typical budget is 2).
func NewDelayScheduler(budget int) Scheduler {
	return &delayScheduler{probes: probes{draws: draws{name: "delay"}, depth: budget}}
}

func (s *delayScheduler) Prepare(seed int64, maxSteps int) {
	s.place(seed, maxSteps)
	s.last = NoMachine
	s.delayed = s.delayed[:0]
}

// pickBaseline returns rr's choice among the enabled machines that are not
// delayed: the first above last, else the first. If all are delayed, the
// delay set is cleared (the delayed machines have "caught up to the front").
func (s *delayScheduler) pickBaseline(enabled []MachineID) MachineID {
	first := NoMachine
	for _, id := range enabled {
		if int(id) < len(s.delayed) && s.delayed[id] {
			continue
		}
		if id > s.last {
			return id
		}
		if first == NoMachine {
			first = id
		}
	}
	if first == NoMachine {
		s.delayed = s.delayed[:0]
		return s.pickBaseline(enabled)
	}
	return first
}

func (s *delayScheduler) NextMachine(enabled []MachineID) MachineID {
	choice := s.pickBaseline(enabled)
	if s.probe() {
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
