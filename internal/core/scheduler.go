package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Scheduler resolves every nondeterministic choice of an execution: which
// enabled machine runs at each scheduling point, the outcomes of
// RandomBool/RandomInt, and the outcome of every fault the harness may
// inject. A Scheduler instance is owned by exactly one exploration worker
// and is reused across the executions that worker performs; Prepare is
// called before each execution. Instances are never shared between
// goroutines — parallel runs construct one per worker from the
// scheduler's registered constructor.
//
// Schedulers must be deterministic functions of their seed and the call
// sequence, because exact replay (and thus bug reproduction) depends on it.
type Scheduler interface {
	Name() string
	// Prepare readies the scheduler for the next execution.
	Prepare(seed int64, maxSteps int)
	// NextMachine picks one of the enabled machines. enabled is sorted by
	// MachineID and never empty. The engine maintains the enabled set
	// incrementally and passes the same backing array every step:
	// implementations must treat it as read-only and must not retain it
	// across calls (copy if needed).
	NextMachine(enabled []MachineID) MachineID
	NextBool() bool
	// NextInt returns a value in [0, n). The engine only asks with
	// n > 0: Context.RandomInt reports a non-positive bound as a safety
	// bug before it reaches the scheduler.
	NextInt(n int) int
	// NextFault resolves one fault choice point, returning an outcome in
	// [0, c.N). Outcome 0 is the benign choice.
	NextFault(c FaultChoice) int
}

// FeedbackScheduler is implemented by coverage-guided schedulers: the
// engine attaches a shared corpus of interesting trace prefixes to every
// instance before exploration starts, and runs the exploration in
// fixed-size generations, merging new entries only at the barriers between
// them, so the corpus state each iteration observes is worker-count
// independent. The scheduler must treat the corpus as read-only, keep every
// decision a pure function of (Prepare seed, corpus contents, call
// sequence), and behave like an ordinary scheduler when the corpus is
// absent or empty (that is also how the conformance checker first exercises
// it).
type FeedbackScheduler interface {
	Scheduler
	AttachCorpus(c *Corpus)
}

// LengthHinted is implemented by adaptive schedulers, which place probes
// within an estimate of the program length; without one, pct and delay place
// them within the step bound, where most fall beyond the end of a short
// execution. The exploration loop calibrates every member whose instances
// implement it: it measures the member's iteration 0 on an un-hinted instance
// and pins the observed step count on every later one, which is what makes
// their decision streams pure functions of the per-execution seed (and
// results worker-count-independent).
type LengthHinted interface {
	SetLengthHint(steps int)
}

// schedulerRegistry is the single source of truth for scheduler names,
// mapping each to its constructor, guarded by registryMu: RegisterScheduler
// adds user-defined strategies at runtime. What an instance implements it
// says itself: LengthHinted makes it adaptive, FeedbackScheduler makes it
// feedback-driven, and the exploration loop asks one instance per member.
// The conformance suite iterates it, so a newly registered scheduler is
// automatically held to the conformance contract (total reseeding, valid
// NextMachine/NextInt behavior) and becomes a valid Options.Scheduler
// value and portfolio member.
var (
	registryMu        sync.RWMutex
	schedulerRegistry = map[string]func() Scheduler{
		"random":     NewRandomScheduler,
		"pct":        func() Scheduler { return NewPCTScheduler(probeDepth) },
		"rr":         NewRoundRobinScheduler,
		"delay":      func() Scheduler { return NewDelayScheduler(probeDepth) },
		"mutational": NewMutationalScheduler,
	}
)

// probeDepth is the number of probes pct and delay place per execution:
// priority change points for pct, delay points for delay (the paper's
// configuration).
const probeDepth = 2

// RegisterScheduler adds a user-defined exploration strategy under name,
// making it a first-class citizen of the engine: valid for
// Options.Scheduler, eligible as a portfolio member (with its own
// deterministic member seeding), covered by the scheduler conformance
// matrix, and — when its instances implement LengthHinted — calibrated by
// the exploration loop exactly like the built-in pct/delay schedulers, with
// nothing to declare.
//
// Registration is typically done from an init function or at the top of a
// test. The name must be non-empty, must not contain commas or whitespace
// (portfolio specs are comma-separated), and must not already be
// registered. newScheduler must build a fresh, independent instance each
// call; it is called once here, and an instance it builds nil is refused
// now rather than handed to an exploration worker.
func RegisterScheduler(name string, newScheduler func() Scheduler) error {
	if name == "" {
		return fmt.Errorf("gostorm: RegisterScheduler: name must be non-empty")
	}
	if strings.ContainsAny(name, ", \t\n") {
		return fmt.Errorf("gostorm: RegisterScheduler: name %q must not contain commas or whitespace", name)
	}
	if newScheduler == nil {
		return fmt.Errorf("gostorm: RegisterScheduler(%q): the constructor must be non-nil", name)
	}
	if newScheduler() == nil {
		return fmt.Errorf("gostorm: RegisterScheduler(%q): the constructor returned a nil scheduler", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := schedulerRegistry[name]; dup {
		return fmt.Errorf("gostorm: RegisterScheduler: scheduler %q is already registered", name)
	}
	schedulerRegistry[name] = newScheduler
	return nil
}

// SchedulerNames returns every registered scheduler name, sorted. These
// are the valid values for Options.Scheduler and Options.Portfolio.
func SchedulerNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(schedulerRegistry))
	for name := range schedulerRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupScheduler resolves a registered scheduler name, or reports the
// unknown name as a ConfigError (Field is filled by the caller's context
// when it differs from Options.Scheduler).
func lookupScheduler(name string) (func() Scheduler, *ConfigError) {
	registryMu.RLock()
	newSched, ok := schedulerRegistry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, &ConfigError{
			Field: "Options.Scheduler",
			Reason: fmt.Sprintf("unknown scheduler %q (known: %s)",
				name, strings.Join(SchedulerNames(), ", ")),
		}
	}
	return newSched, nil
}

// draws is the seeded generator every randomized built-in scheduler embeds:
// it answers the data choices (NextBool, NextInt) and, uniformly over the
// outcomes, the fault choices; a scheduler with a strategy of its own for
// faults shadows NextFault. The generator is built on the first reseed.
type draws struct {
	name string
	rng  *rand.Rand
}

func (d *draws) Name() string { return d.name }

// reseed restarts the stream for an execution: after it the draws equal
// rand.New(rand.NewSource(seed))'s bit for bit, whatever was drawn before —
// execution i's schedule is a pure function of its seed, and every trace and
// fixture recorded under math/rand's own source keeps replaying. The
// generator is a lazySource (lazyrand.go), so this is O(1) rather than
// math/rand's 607-word fill, and it is reused because Prepare runs once per
// execution and must not allocate; TestLazySourceMatchesMathRand,
// TestLazySourceReseedLeavesNoStaleWords and FuzzLazySourceMatchesMathRand
// pin the contract.
func (d *draws) reseed(seed int64) {
	if d.rng == nil {
		d.rng = NewRand()
	}
	d.rng.Seed(seed)
}

func (d *draws) NextBool() bool { return d.rng.Intn(2) == 0 }

func (d *draws) NextInt(n int) int { return d.rng.Intn(n) }

func (d *draws) NextFault(c FaultChoice) int { return d.rng.Intn(c.N) }

// stream is how the runtime finds the generator of a scheduler that embeds
// draws: the fair tail answers from it (Runtime.atLimit).
func (d *draws) stream() *draws { return d }

// probes is what the two adaptive schedulers share: depth probe points (pct's
// priority change points, delay's delay points) drawn per execution within an
// estimate of the program length, and a step counter that fault choice points
// advance like scheduling points — so a probe that lands on a fault point is
// spent forcing a non-benign outcome there, the fault-plane analog of
// demoting or delaying a machine. Everywhere else a fault outcome is uniform.
type probes struct {
	draws
	depth int
	// points holds the distinct step numbers probed this execution, sorted,
	// and next indexes the first not yet reached; step counts the choices
	// answered so far in this execution.
	points []int
	next   int
	step   int
	// lengthHint, when positive, is the engine-shared length estimate the
	// points are drawn within.
	lengthHint int
}

// place reseeds and draws the execution's probe points within the
// engine-shared length estimate; sampling over the (often much larger) step
// bound would push most points beyond the end of the execution and waste the
// budget, so the bound is only the fallback for an instance with no hint or a
// degenerately short one. Nothing carries over from an earlier execution, so
// the points are a pure function of (seed, hint, maxSteps). They are drawn
// first and sorted after, so the draws do not depend on how probe walks them,
// and points drawn twice probe their step once.
func (p *probes) place(seed int64, maxSteps int) {
	p.reseed(seed)
	bound := p.lengthHint
	if bound < minEstimate {
		bound = maxSteps
	}
	p.step, p.next = 0, 0
	p.points = p.points[:0]
	for i := 0; i < p.depth; i++ {
		p.points = append(p.points, 1+p.rng.Intn(bound))
	}
	slices.Sort(p.points)
	p.points = slices.Compact(p.points)
}

// minEstimate is the shortest length estimate that places probes or starts a
// fair tail.
const minEstimate = 10

// SetLengthHint implements LengthHinted: it pins the program-length estimate.
func (p *probes) SetLengthHint(steps int) { p.lengthHint = steps }

// probe counts one choice point and reports whether a probe landed on it.
// Steps go up by one, so the cursor passes each point as its step comes.
func (p *probes) probe() bool {
	p.step++
	if p.next < len(p.points) && p.points[p.next] == p.step {
		p.next++
		return true
	}
	return false
}

// NextFault implements Scheduler.
func (p *probes) NextFault(c FaultChoice) int {
	if p.probe() {
		return 1 + p.rng.Intn(c.N-1)
	}
	return p.rng.Intn(c.N)
}

// randomScheduler implements the paper's "random scheduler": at every
// scheduling point it picks uniformly among the enabled machines. Random
// scheduling is simple but has proven effective at finding concurrency
// bugs (Thomson et al., PPoPP 2014).
type randomScheduler struct{ draws }

// NewRandomScheduler returns the uniform random scheduler.
func NewRandomScheduler() Scheduler { return &randomScheduler{draws{name: "random"}} }

func (s *randomScheduler) Prepare(seed int64, _ int) { s.reseed(seed) }

func (s *randomScheduler) NextMachine(enabled []MachineID) MachineID {
	return enabled[s.rng.Intn(len(enabled))]
}

// pctScheduler implements the randomized priority-based scheduler of
// Burckhardt et al. (ASPLOS 2010), the paper's second scheduler. Every
// machine gets a random priority; at each scheduling point the
// highest-priority enabled machine runs. At `depth` randomly chosen steps
// per execution (probes) the scheduler demotes the machine it is about to
// run to the lowest priority, which is what lets it dig out bugs that need a
// specific thread to stall at a specific moment.
type pctScheduler struct {
	probes

	// prio is indexed by MachineID and grown to the largest enabled ID;
	// pctUnset marks a machine not seen yet.
	prio   []int
	lowest int
}

// pctUnset is the prio entry of a machine not seen yet; real priorities are
// draws from [0, 1<<20) or small negative demotion ranks.
const pctUnset = math.MinInt

// NewPCTScheduler returns a PCT scheduler with the given number of priority
// change points per execution.
func NewPCTScheduler(depth int) Scheduler {
	return &pctScheduler{probes: probes{draws: draws{name: "pct"}, depth: depth}}
}

func (s *pctScheduler) Prepare(seed int64, maxSteps int) {
	s.place(seed, maxSteps)
	s.prio = s.prio[:0]
	s.lowest = 0
}

// NextMachine runs the enabled machine of highest priority, the lowest ID
// winning a tie; on a probe it first demotes that machine below every other
// and selects again. A machine seen for the first time draws its priority,
// in enabled order, and so ranks at random among those seen before it.
func (s *pctScheduler) NextMachine(enabled []MachineID) MachineID {
	for top := int(enabled[len(enabled)-1]); top >= len(s.prio); {
		s.prio = append(s.prio, pctUnset)
	}
	for demote := s.probe(); ; demote = false {
		best, bestP := NoMachine, pctUnset
		for _, id := range enabled {
			p := s.prio[id]
			if p == pctUnset {
				p = s.firstSight(id)
			}
			if p > bestP {
				best, bestP = id, p
			}
		}
		if !demote {
			return best
		}
		s.lowest--
		s.prio[best] = s.lowest
	}
}

// firstSight draws the priority of a machine seen for the first time. Ties
// go to the lower ID in the scan, so collisions are harmless.
func (s *pctScheduler) firstSight(id MachineID) int {
	p := s.rng.Intn(1 << 20)
	s.prio[id] = p
	return p
}

// rrScheduler is a deterministic round-robin baseline: it cycles through
// machines in ID order. Useful as a control in scheduler ablations. The
// machine order is the same in every execution — only RandomBool/RandomInt
// and fault outcomes vary with the seed — so a run spends its whole budget
// on that one machine order.
type rrScheduler struct {
	draws
	last MachineID
}

// NewRoundRobinScheduler returns the round-robin baseline scheduler.
// RandomBool/RandomInt and fault outcomes still come uniformly from the
// seed's RNG so harnesses that use choices remain runnable.
func NewRoundRobinScheduler() Scheduler { return &rrScheduler{draws: draws{name: "rr"}} }

func (s *rrScheduler) Prepare(seed int64, _ int) {
	s.reseed(seed)
	s.last = NoMachine
}

func (s *rrScheduler) NextMachine(enabled []MachineID) MachineID {
	// Pick the smallest ID strictly greater than last, wrapping around.
	// enabled is sorted, so a forward scan finds it; for the small
	// enabled sets every step hands us, the scan beats sort.Search's
	// closure-indirected binary search on the hot path.
	for _, id := range enabled {
		if id > s.last {
			s.last = id
			return id
		}
	}
	s.last = enabled[0]
	return s.last
}
