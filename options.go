package gostorm

import (
	"fmt"

	"github.com/gostorm/gostorm/internal/core"
)

// Option configures an Explore, Replay or Resolve call. Options are
// applied in order, so later options override earlier ones — which is
// what lets a caller layer overrides on top of a scenario's recommended
// options (append(sc.Options(), WithSeed(7))). The override rule covers
// the strategy axis too: a WithScheduler after a WithPortfolio replaces
// the portfolio with the single scheduler, and vice versa.
//
// An invalid value — WithIterations(0), an unknown scheduler name, a
// negative fault budget — is reported by the call the option is passed
// to, as a *ConfigError naming the Options field it sets
// ("Options.Iterations"); options themselves never panic.
type Option func(*config)

// config accumulates applied options. The first configuration error
// sticks: it names the earliest mistake, which is the one the caller
// should fix first.
type config struct {
	opts core.Options
	err  *ConfigError
}

// fail records the first configuration error.
func (c *config) fail(field, reason string) {
	if c.err == nil {
		c.err = &ConfigError{Field: field, Reason: reason}
	}
}

// resolve applies the options in order.
func resolve(opts []Option) (*config, error) {
	c := &config{}
	for _, opt := range opts {
		if opt == nil {
			c.fail("Options", "nil Option (was an option constructor's error ignored?)")
			continue
		}
		opt(c)
	}
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

// positive is the body the must-be-positive options share: it stores the
// value with set, or records that field was handed a non-positive one.
// Options.Resolve reads zero as "default" and cannot see an explicit one.
func positive(field string, v int, set func(*core.Options)) Option {
	return func(c *config) {
		if v <= 0 {
			c.fail(field, fmt.Sprintf("must be positive, got %d", v))
			return
		}
		set(&c.opts)
	}
}

// WithScheduler selects the exploration strategy by registered name:
// "random" (the default), "pct", "rr", "delay", "mutational", or any name
// added via RegisterScheduler. It overrides an earlier WithPortfolio: the run
// explores the single named scheduler.
func WithScheduler(name string) Option {
	return func(c *config) {
		if name == "" {
			c.fail("Options.Scheduler", "scheduler name must be non-empty")
			return
		}
		c.opts.Scheduler = name
		c.opts.Portfolio = nil
	}
}

// WithPortfolio races the named schedulers against the test instead of
// running a single strategy — the paper's observation that no single
// exploration strategy finds every bug, made operational. The members'
// iterations interleave round-robin into one plan drained by the one
// worker pool, the run stops on the first confirmed bug in plan order,
// and Result.Portfolio/Result.Winner attribute the win.
// Duplicate members are allowed and useful: each member derives an
// independent base seed from its index. It overrides an earlier
// WithScheduler: the run races the portfolio.
func WithPortfolio(members ...string) Option {
	return func(c *config) {
		if len(members) == 0 {
			c.fail("Options.Portfolio", "needs at least one member (see SchedulerNames)")
			return
		}
		c.opts.Portfolio = append([]string(nil), members...)
		c.opts.Scheduler = ""
	}
}

// WithSeed selects the pseudo-random schedule sequence. Each execution i
// derives its own sub-seed purely from (Seed, i) — and, in a portfolio,
// member m's execution i purely from (Seed, m, i) — so runs are
// reproducible end to end and independent of worker count. The default
// seed is 0, which is as valid as any other.
func WithSeed(seed int64) Option {
	return func(c *config) { c.opts.Seed = seed }
}

// WithIterations bounds the number of executions (default 10,000); in a
// portfolio run the budget applies to each member individually.
func WithIterations(n int) Option {
	return positive("Options.Iterations", n, func(o *core.Options) { o.Iterations = n })
}

// WithMaxSteps bounds each execution's scheduling steps (default 10,000).
// A monitor hot at the bound gets a uniform tail, and is a liveness bug if
// still hot at 2 × n steps, which no execution runs past.
func WithMaxSteps(n int) Option {
	return positive("Options.MaxSteps", n, func(o *core.Options) { o.MaxSteps = n })
}

// WithWorkers sets the size of the run's one pool of exploration workers
// (default: one per CPU). In a portfolio every worker serves every member,
// so WithWorkers(1) really is one worker. Results are bit-identical at
// every worker count — the engine's determinism contract — so this is
// purely a throughput knob. Replay is single-threaded regardless.
func WithWorkers(n int) Option {
	return positive("Options.Workers", n, func(o *core.Options) { o.Workers = n })
}

// WithFaults replaces the test's declared fault budget wholesale for this
// run. The zero budget turns the fault plane off, as WithNoFaults does:
// CrashPoint declines, SendUnreliable behaves like Send, injector machines
// halt. A negative budget is reported on its Options.Faults field.
func WithFaults(f Faults) Option {
	return func(c *config) { c.opts.Faults = &f }
}

// WithNoFaults turns the fault plane off, whatever the test declares — the
// way to run a fault-budgeted scenario crash-free. It is WithFaults of the
// zero budget.
func WithNoFaults() Option { return WithFaults(Faults{}) }

// WithNoReuse disables the pooled execution engine: every execution gets
// a freshly allocated runtime with fresh machine goroutines, inboxes and
// buffers. Pooling is semantically invisible — for a fixed seed, results,
// traces and statistics are bit-identical with pooling on and off — so
// this is an escape hatch for debugging and for benchmarking the pool
// itself, not a correctness knob.
func WithNoReuse() Option {
	return func(c *config) { c.opts.NoReuse = true }
}

// WithNoReplayLog skips the confirmation replay that re-runs a buggy
// schedule to collect the detailed execution log — useful when only the
// Result statistics or the raw trace are needed.
func WithNoReplayLog() Option {
	return func(c *config) { c.opts.NoReplayLog = true }
}

// WithNoLivenessBoundCheck disables the treat-bound-as-infinite liveness
// heuristic: an execution ends clean at the step bound, with no tail past
// it (hot-at-termination is still checked).
func WithNoLivenessBoundCheck() Option {
	return func(c *config) { c.opts.NoLivenessBoundCheck = true }
}
