package core

import "testing"

func TestDelaySchedulerFindsOrderingBug(t *testing.T) {
	// The engine calibrates delay's program-length estimate from
	// iteration 0, so the discovering iteration no longer depends on
	// worker count (see pct).
	res := MustExplore(raceTest(), Options{Scheduler: "delay", Iterations: 2000, Seed: 42})
	if !res.BugFound {
		t.Fatal("delay scheduler did not find the ordering bug")
	}
}

func TestDelaySchedulerCompletesCleanPrograms(t *testing.T) {
	res := MustExplore(pingPongTest(10, false), Options{Scheduler: "delay", Iterations: 100, Seed: 7})
	if res.BugFound {
		t.Fatalf("unexpected bug: %v", res.Report.Error())
	}
}

func TestDelaySchedulerZeroBudgetIsDeterministicBaseline(t *testing.T) {
	// With no delay points the schedule is the round-robin baseline, so
	// two runs with different seeds explore the same schedule.
	s1 := NewDelayScheduler(0)
	s2 := NewDelayScheduler(0)
	s1.Prepare(1, 100)
	s2.Prepare(999, 100)
	enabled := []MachineID{0, 1, 2}
	for i := 0; i < 20; i++ {
		a := s1.NextMachine(enabled)
		b := s2.NextMachine(enabled)
		if a != b {
			t.Fatalf("step %d: baseline diverged: %v vs %v", i, a, b)
		}
	}
}

func TestDelaySchedulerRespectsEnabledSet(t *testing.T) {
	s := NewDelayScheduler(3)
	s.Prepare(5, 100)
	for i := 0; i < 200; i++ {
		enabled := []MachineID{MachineID(1 + i%3), MachineID(5 + i%2)}
		got := s.NextMachine(enabled)
		found := false
		for _, id := range enabled {
			if id == got {
				found = true
			}
		}
		if !found {
			t.Fatalf("scheduler picked %v, not in enabled set %v", got, enabled)
		}
	}
}

func TestNewSchedulerKnowsDelay(t *testing.T) {
	if name := newScheduler(t, "delay", 0).Name(); name != "delay" {
		t.Fatalf("the delay scheduler is named %q", name)
	}
}

// TestPCTAdaptiveChangePoints checks that the change points fall within the
// length hint, and within the step bound when there is none: a short
// execution before does not narrow them.
func TestPCTAdaptiveChangePoints(t *testing.T) {
	const maxSteps = 100000
	for _, hint := range []int{0, 50} {
		s := NewPCTScheduler(3).(*pctScheduler)
		s.SetLengthHint(hint)
		s.Prepare(1, maxSteps)
		// Simulate a short execution of 50 steps.
		enabled := []MachineID{0, 1}
		for i := 0; i < 50; i++ {
			s.NextMachine(enabled)
		}
		s.Prepare(2, maxSteps)
		bound, beyond := hint, false
		if hint == 0 {
			bound = maxSteps
		}
		for _, cp := range s.points {
			if cp > bound {
				t.Fatalf("hint %d: change point %d beyond %d", hint, cp, bound)
			}
			beyond = beyond || cp > 50
		}
		if beyond != (hint == 0) {
			t.Fatalf("hint %d: change points %v, want some beyond the 50 steps run before iff there is no hint", hint, s.points)
		}
	}
}
