package core

import "testing"

// replayed asks a replay scheduler holding the single decision d one choice
// and returns its answer, or the divergence it raised.
func replayed(d Decision, ask func(Scheduler) int) (out int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = p.(replayDivergence)
		}
	}()
	return ask(newReplayScheduler(&Trace{Decisions: []Decision{d}})), nil
}

// spliced asks a mutational scheduler splicing the single decision d the
// same choice, and a bare generator under the same seed: its answer, whether
// it came from d, and what the generator alone answers.
func spliced(d Decision, ask func(Scheduler) int) (out int, fromPrefix bool, drawn int) {
	s := NewMutationalScheduler().(*mutationalScheduler)
	s.Prepare(7, 100)
	s.prefix = []Decision{d}
	out = ask(s)
	g := NewRandomScheduler()
	g.Prepare(7, 100)
	return out, s.prefix != nil, ask(g)
}

// TestRecordAndReplayAreInverses: FaultChoice.decision and
// FaultChoice.outcome are inverses over every outcome of every choice
// conformanceDrive presents, and both feeders go through them: the replay
// scheduler and the splice return what was recorded. A decision that does
// not fit the live choice is a misfit in the mapping, the mapping's text as
// a divergence under replay — in the words the lifecycle goldens pin — and an
// in-range draw from the generator under the splice.
func TestRecordAndReplayAreInverses(t *testing.T) {
	for _, c := range conformanceChoices {
		ask := func(s Scheduler) int { return s.NextFault(c) }
		for out := 0; out < c.N; out++ {
			var d Decision
			d.Kind, d.Machine, d.Bool, d.Int, d.N = c.decision(out)
			if got, misfit := c.outcome(d); got != out || misfit != "" {
				t.Fatalf("%v/%d: outcome(decision(%d)) = (%d, %q), recorded as %s", c.Kind, c.N, out, got, misfit, d)
			}
			if got, err := replayed(d, ask); got != out || err != nil {
				t.Fatalf("%v/%d: replay of %s = (%d, %v), want %d", c.Kind, c.N, d, got, err, out)
			}
			if got, fromPrefix, _ := spliced(d, ask); got != out || !fromPrefix {
				t.Fatalf("%v/%d: splice of %s = %d (from the prefix: %v), want %d", c.Kind, c.N, d, got, fromPrefix, out)
			}
		}
	}

	timer, crash, deliver, persist := conformanceChoices[0], conformanceChoices[1], conformanceChoices[4], conformanceChoices[6]
	fault := func(c FaultChoice) (func(Scheduler) int, int) {
		return func(s Scheduler) int { return s.NextFault(c) }, c.N
	}
	for _, p := range []struct {
		name string
		d    Decision
		c    *FaultChoice // nil: a data choice, asked by ask below n
		ask  func(Scheduler) int
		n    int
		want string
	}{
		{name: "timer, other machine", c: &timer, d: Decision{Kind: DecisionTimer, Machine: 104, Bool: true},
			want: "timer choice for machine 4, trace holds timer(104 fired)"},
		{name: "crash, victim not a candidate", c: &crash, d: Decision{Kind: DecisionCrash, Machine: 2, Int: 1, N: 3},
			want: "recorded crash victim 2 is not a live candidate (candidates [#1 #5])"},
		{name: "delivery, other machine", c: &deliver, d: Decision{Kind: DecisionDeliver, Machine: 2, N: 3},
			want: "delivery choice for machine 6, trace holds deliver(2, deliver)"},
		{name: "delivery, unaffordable outcome", c: &deliver, d: Decision{Kind: DecisionDeliver, Machine: 6, Int: int(Drop), N: 3},
			want: "recorded delivery outcome drop not affordable here (outcomes [deliver duplicate])"},
		{name: "delivery, negative outcome", c: &deliver, d: Decision{Kind: DecisionDeliver, Machine: 6, Int: -1, N: 3},
			want: "recorded delivery outcome DeliveryOutcome(-1) not affordable here (outcomes [deliver duplicate])"},
		{name: "persist, other machine", c: &persist, d: Decision{Kind: DecisionPersist, Machine: 9, N: 2},
			want: "persist choice for machine 1, trace holds persist(9, 0 of 1 staged survive)"},
		{name: "persist, prefix beyond the staged count", c: &persist, d: Decision{Kind: DecisionPersist, Machine: 1, Int: 2, N: 3},
			want: "recorded persist outcome 2 out of range 2 (staged-write count changed)"},
		{name: "persist, negative prefix", c: &persist, d: Decision{Kind: DecisionPersist, Machine: 1, Int: -1, N: 2},
			want: "recorded persist outcome -1 out of range 2 (staged-write count changed)"},
		{name: "fault, wrong kind", c: &timer, d: Decision{Kind: DecisionBool},
			want: "program asked for 't', trace holds bool(false)"},
		{name: "machine, not enabled", d: Decision{Kind: DecisionSchedule, Machine: 103},
			ask: func(s Scheduler) int { return int(s.NextMachine([]MachineID{3})) - 3 }, n: 1,
			want: "machine 103 not enabled (enabled: [#3])"},
		{name: "int, beyond the bound", d: Decision{Kind: DecisionInt, Int: 9, N: 10},
			ask: func(s Scheduler) int { return s.NextInt(4) }, n: 4,
			want: "int choice 9 out of range 4"},
		{name: "int, negative", d: Decision{Kind: DecisionInt, Int: -1, N: 3},
			ask: func(s Scheduler) int { return s.NextInt(3) }, n: 3,
			want: "int choice -1 out of range 3"},
		{name: "int, wrong kind", d: Decision{Kind: DecisionSchedule, Machine: 2},
			ask: func(s Scheduler) int { return s.NextInt(3) }, n: 3,
			want: "program asked for 'i', trace holds sched(2)"},
	} {
		if p.c != nil {
			if _, misfit := p.c.outcome(p.d); misfit != p.want {
				t.Errorf("%s: outcome(%s) misfit = %q, want %q", p.name, p.d, misfit, p.want)
			}
			p.ask, p.n = fault(*p.c)
		}
		if out, err := replayed(p.d, p.ask); err == nil || err.Error() != "core: replay divergence: decision 0: "+p.want {
			t.Errorf("%s: replay = (%d, %v), want the divergence %q", p.name, out, err, p.want)
		}
		if out, fromPrefix, drawn := spliced(p.d, p.ask); fromPrefix || out != drawn || out < 0 || out >= p.n {
			t.Errorf("%s: splice = %d (from the prefix: %v), want the generator's %d, in [0, %d)", p.name, out, fromPrefix, drawn, p.n)
		}
	}
}
