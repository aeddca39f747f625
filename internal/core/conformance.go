package core

import (
	"fmt"
	"slices"
)

// This file is the scheduler conformance checker: the executable contract
// every registered scheduler — built-in or user-registered — must satisfy
// for the engine's determinism guarantees to hold. The cross-scheduler
// conformance matrix (TestSchedulerConformance) drives it over the whole
// registry, and the public package exports it as gostorm.VerifyScheduler
// so extension authors can hold their strategies to the same contract
// without touching core.

// conformanceChoices is the fault-choice part of conformanceDrive's workload:
// every kind, in more than one shape.
var conformanceChoices = []FaultChoice{
	{Kind: FaultTimer, N: 2, Machine: 4},
	{Kind: FaultCrash, N: 3, Machine: NoMachine, Candidates: []MachineID{1, 5}},
	{Kind: FaultCrash, N: 5, Machine: NoMachine, Candidates: []MachineID{0, 2, 4, 6}},
	{Kind: FaultDeliver, N: 3, Machine: 2, Outcomes: []DeliveryOutcome{Deliver, Drop, Duplicate}},
	{Kind: FaultDeliver, N: 2, Machine: 6, Outcomes: []DeliveryOutcome{Deliver, Duplicate}},
	{Kind: FaultPersist, N: 3, Machine: 5, Keys: []string{"wal/0", "wal/1"}},
	{Kind: FaultPersist, N: 2, Machine: 1, Keys: []string{"meta"}},
}

// conformanceDrive pushes a scheduler through a fixed synthetic workload —
// a mix of NextMachine calls over varied (sorted, possibly non-contiguous)
// enabled sets, NextBool, NextInt over several bounds, and NextFault over
// every fault kind — validating every answer and returning the decision
// stream as comparable strings.
func conformanceDrive(name string, s Scheduler) ([]string, error) {
	enabledSets := [][]MachineID{
		{0},
		{0, 1},
		{0, 1, 2},
		{1, 3, 7},
		{2, 5},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{4},
		{3, 9},
	}
	var stream []string
	for step := 0; step < 64; step++ {
		enabled := enabledSets[step%len(enabledSets)]
		got := s.NextMachine(enabled)
		if !slices.Contains(enabled, got) {
			return nil, fmt.Errorf("%s: NextMachine(%v) = %d, not a member of the enabled set", name, enabled, got)
		}
		stream = append(stream, fmt.Sprintf("m%d", got))
		stream = append(stream, fmt.Sprintf("b%t", s.NextBool()))
		for _, n := range []int{1, 2, 3, 10, 1000} {
			v := s.NextInt(n)
			if v < 0 || v >= n {
				return nil, fmt.Errorf("%s: NextInt(%d) = %d, out of [0, %d)", name, n, v, n)
			}
			stream = append(stream, fmt.Sprintf("i%d/%d", v, n))
		}
		c := conformanceChoices[step%len(conformanceChoices)]
		f := s.NextFault(c)
		if f < 0 || f >= c.N {
			return nil, fmt.Errorf("%s: NextFault(%v/%d) = %d, out of [0, %d)", name, c.Kind, c.N, f, c.N)
		}
		stream = append(stream, fmt.Sprintf("f%v:%d/%d", c.Kind, f, c.N))
	}
	return stream, nil
}

// compareStreams reports the first divergence between two decision
// streams from the same constructor and seed.
func compareStreams(name, what string, a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %s: stream lengths diverge: %d vs %d", name, what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: %s: decision %d diverges: %s vs %s", name, what, i, a[i], b[i])
		}
	}
	return nil
}

// VerifySchedulerConformance holds the named registered scheduler to the
// contract the exploration engine and portfolio attribution rest on,
// returning the first violation found (nil when the scheduler conforms):
//
//   - NextMachine always returns a member of the enabled set, and
//     NextBool/NextInt/NextFault stay in range on valid input;
//   - the constructor never builds nil or the same instance twice, and two
//     fresh instances make identical decisions for the same seed (the
//     property the parallel worker pool rests on);
//   - Prepare reseeding is total: re-preparing the same instance with the
//     same seed reproduces the identical decision stream, with no state
//     leaking across executions. Adaptive schedulers (LengthHinted) are
//     checked under a pinned length estimate, which is exactly how the
//     engine runs them;
//   - with exactly one enabled machine the scheduler picks it, whatever
//     its internal state;
//   - a scheduler that implements FeedbackScheduler is additionally checked
//     with a fixed synthetic corpus attached: fresh instances sharing
//     the corpus must still make identical in-range decisions for the
//     same seed, and re-preparing must still reseed totally. (The first
//     pass runs it corpus-less, pinning the required degenerate-to-
//     ordinary behavior.)
func VerifySchedulerConformance(name string) error {
	newSched, cerr := lookupScheduler(name)
	if cerr != nil {
		return cerr
	}
	// pinned builds fresh instances as the exploration loop runs them: an
	// adaptive one under a pinned length estimate, a feedback one reading
	// corpus when it is non-nil.
	pinned := func(corpus *Corpus) func() Scheduler {
		return func() Scheduler {
			s := newSched()
			if h, ok := s.(LengthHinted); ok {
				h.SetLengthHint(64)
			}
			if fs, ok := s.(FeedbackScheduler); ok && corpus != nil {
				fs.AttachCorpus(corpus)
			}
			return s
		}
	}
	if err := verifyFactoryDeterminism(name, pinned(nil)); err != nil {
		return err
	}
	if _, feedback := newSched().(FeedbackScheduler); feedback {
		// The corpus deliberately mixes prefixes that splice cleanly into
		// the synthetic workload with ones that diverge immediately, so
		// both the replay path and the abandon-and-randomize path are
		// under the determinism check.
		synth := NewCorpus(4)
		synth.Add(0x1001, 0, []Decision{
			{Kind: DecisionSchedule, Machine: 0},
			{Kind: DecisionBool, Bool: true},
			{Kind: DecisionInt, Int: 0, N: 1},
			{Kind: DecisionInt, Int: 1, N: 2},
			{Kind: DecisionSchedule, Machine: 1},
		})
		synth.Add(0x1002, 1, []Decision{
			{Kind: DecisionSchedule, Machine: 99}, // never enabled: instant divergence
		})
		synth.Add(0x1003, 2, []Decision{
			{Kind: DecisionBool, Bool: false}, // wrong kind at the first call
		})
		if err := verifyFactoryDeterminism(name+" (with corpus)", pinned(synth)); err != nil {
			return err
		}
	}

	// Singleton enabled set: with one choice there is no choice.
	s := pinned(nil)()
	s.Prepare(3, 1000)
	for step := 0; step < 50; step++ {
		only := MachineID(step % 11)
		if got := s.NextMachine([]MachineID{only}); got != only {
			return fmt.Errorf("%s: step %d: NextMachine([%d]) = %d", name, step, only, got)
		}
	}
	return nil
}

// verifyFactoryDeterminism drives the fresh-instance and re-Prepare
// determinism checks for the instances newSched builds.
func verifyFactoryDeterminism(name string, newSched func() Scheduler) error {
	for _, seed := range []int64{0, 1, 42, -7} {
		a, b := newSched(), newSched()
		if a == nil || b == nil {
			return fmt.Errorf("%s: constructor built a nil scheduler", name)
		}
		if a == b {
			return fmt.Errorf("%s: constructor built the same instance twice", name)
		}
		a.Prepare(seed, 1000)
		b.Prepare(seed, 1000)
		sa, err := conformanceDrive(name, a)
		if err != nil {
			return err
		}
		sb, err := conformanceDrive(name, b)
		if err != nil {
			return err
		}
		if err := compareStreams(name, fmt.Sprintf("fresh instances, seed %d", seed), sa, sb); err != nil {
			return err
		}

		a.Prepare(seed, 1000)
		sc, err := conformanceDrive(name, a)
		if err != nil {
			return err
		}
		if err := compareStreams(name, fmt.Sprintf("re-Prepare, seed %d", seed), sa, sc); err != nil {
			return err
		}
	}
	return nil
}
