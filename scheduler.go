package gostorm

import (
	"math/rand"

	"github.com/gostorm/gostorm/internal/core"
)

// RegisterScheduler adds a user-defined exploration strategy under name,
// making it a first-class citizen of the engine: valid for WithScheduler,
// eligible as a WithPortfolio member (with its own deterministic member
// seeding), covered by the scheduler conformance matrix (VerifyScheduler
// and the repository's conformance tests iterate the registry), and —
// when its instances implement LengthHinted — calibrated by the engine's
// shared program-length estimate exactly like the built-in pct and delay
// schedulers, with nothing to declare. Likewise a scheduler whose
// instances implement FeedbackScheduler is handed the run's corpus.
//
// A registered Scheduler must be a deterministic function of its Prepare
// seed and the call sequence — exact replay, and with it bug
// reproduction, depends on it. It answers a fault choice point through
// NextFault like every other choice. There is no uniform fallback; a
// scheduler with no strategy for faults draws their outcomes uniformly
// itself. Run VerifyScheduler after registering to hold the implementation
// to the contract.
//
// Prepare runs before every execution, so a scheduler that draws from a
// seeded generator should build it once with NewRand and call its Seed in
// Prepare: math/rand's own Seed costs about 11 µs, more than a short
// execution.
//
// Registration is typically done from an init function or at the top of
// a test. The name must be non-empty, must not contain commas or
// whitespace, and must not already be registered; newScheduler must build
// a fresh, non-nil instance on every call.
func RegisterScheduler(name string, newScheduler func() Scheduler) error {
	return core.RegisterScheduler(name, newScheduler)
}

// NewRand returns the generator the built-in schedulers draw from, for
// registered schedulers to reseed in Prepare. After Seed(seed) its stream
// is bit-identical to rand.New(rand.NewSource(seed))'s, but Seed is O(1)
// (the state is produced as it is first read) instead of math/rand's
// 607-word fill. Until the first Seed it behaves as if seeded with 1. Like
// any *rand.Rand over a private source it is not safe for concurrent use;
// a Scheduler instance is owned by one exploration worker, so it need not
// be.
func NewRand() *rand.Rand { return core.NewRand() }

// SchedulerNames returns every registered scheduler name, sorted — the
// valid values for WithScheduler and WithPortfolio.
func SchedulerNames() []string { return core.SchedulerNames() }

// VerifyScheduler holds the named registered scheduler to the conformance
// contract the engine's determinism guarantees rest on, returning the
// first violation found (nil when the scheduler conforms): decisions stay
// in range, two fresh instances make identical decisions for the same
// seed, and re-preparing an instance fully reseeds it. Registered
// user-defined schedulers should pass it before being trusted in
// portfolios — the same checks back the repository's cross-scheduler
// conformance matrix.
func VerifyScheduler(name string) error {
	return core.VerifySchedulerConformance(name)
}
