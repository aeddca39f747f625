package gostorm

import (
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// Explore systematically tests t: it executes the harness repeatedly,
// each time under a different schedule, until a safety or liveness
// violation is found, the iteration/time budget is exhausted, or the
// schedule space is fully covered — the paper's testing process, fully
// automatic, with every bug witnessed by a replayable trace.
//
// Explore is the package's single entry point: WithScheduler selects one
// exploration strategy, WithPortfolio races several, and both report the
// one Result shape (portfolio runs additionally fill Result.Portfolio
// and Result.Winner). With no options it runs the random scheduler for
// 10,000 executions of up to 10,000 steps each, one worker per CPU, seed
// 0.
//
// Determinism contract: for a fixed seed and option set the Result —
// which bug is found, its trace, Executions, TotalSteps, per-member
// attribution — is bit-identical at every worker count, with and without
// execution pooling. Execution i's schedule derives purely from
// (seed, i); portfolio member m's execution i purely from (seed, m, i).
//
// A configuration error — an invalid option value, an unknown scheduler
// or portfolio member, conflicting options — is returned as a typed
// *ConfigError before any execution starts; Explore never panics on
// configuration.
func Explore(t Test, opts ...Option) (Result, error) {
	c, err := resolve(opts)
	if err != nil {
		return Result{}, err
	}
	return core.Explore(t, c.opts)
}

// Replay re-executes a recorded trace against t and returns the
// violation it reproduces (nil if the execution completes cleanly —
// which for a trace recorded from a bug indicates nondeterminism in the
// system under test). The options must match the recording run's bounds
// (WithMaxSteps in particular); the fault budget is taken from the trace
// itself, which is authoritative. Replay is single-threaded by nature
// and ignores WithWorkers.
//
// The returned error is a *ConfigError for configuration mistakes and a
// divergence error when the system under test did not follow the trace.
func Replay(t Test, tr *Trace, opts ...Option) (*BugReport, error) {
	c, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return core.Replay(t, tr, c.opts)
}

// Config is the fully resolved configuration of a prospective run: every
// default applied, the fault budget resolved against the test's
// declaration. Resolve returns it so tools — CLI banners, dashboards —
// report exactly what Explore will do without duplicating the engine's
// defaulting rules.
type Config struct {
	// Scheduler is the single exploration strategy ("" for a portfolio
	// run).
	Scheduler string
	// Portfolio lists the racing members (nil for a single-scheduler
	// run).
	Portfolio []string
	// Sequential reports that the resolved scheduler enumerates its
	// schedule space statefully (dfs) and therefore runs on one worker.
	Sequential bool
	// PCTDepth is the exploration depth of the depth-budgeted
	// schedulers.
	PCTDepth int
	// Seed is the base random seed.
	Seed int64
	// Iterations is the execution budget (per member for a portfolio).
	Iterations int
	// MaxSteps bounds each execution.
	MaxSteps int
	// Workers is the size of the exploration worker pool (1 for
	// sequential schedulers; shared by all members of a portfolio).
	Workers int
	// Temperature is the liveness temperature threshold (0 = bound
	// check only).
	Temperature int
	// StopAfter is the wall-clock bound (0 = none).
	StopAfter time.Duration
	// LogCap bounds the replay log.
	LogCap int
	// CorpusSize bounds the exploration corpus of feedback schedulers.
	CorpusSize int
	// Faults is the effective fault budget of the run: the test's
	// declared budget, a WithFaults override, or the zero budget under
	// WithNoFaults.
	Faults Faults
}

// Resolve reports the configuration a run of t under the given options
// would use, without executing anything: defaults applied, worker count
// clamped for sequential schedulers, and the fault budget resolved
// exactly as the engine resolves it (WithNoFaults over WithFaults over
// the test's declared budget). Invalid options are reported as the same
// *ConfigError Explore would return.
func Resolve(t Test, opts ...Option) (Config, error) {
	c, err := resolve(opts)
	if err != nil {
		return Config{}, err
	}
	if err := c.opts.Validate(); err != nil {
		return Config{}, err
	}
	if err := core.ValidateTest(t); err != nil {
		return Config{}, err
	}
	o := c.opts.WithDefaults()
	cfg := Config{
		PCTDepth:    o.PCTDepth,
		Seed:        o.Seed,
		Iterations:  o.Iterations,
		MaxSteps:    o.MaxSteps,
		Workers:     o.Workers,
		Temperature: o.Temperature,
		StopAfter:   o.StopAfter,
		LogCap:      o.LogCap,
		CorpusSize:  o.CorpusSize,
		Faults:      o.EffectiveFaults(t),
	}
	if len(o.Portfolio) > 0 {
		cfg.Portfolio = append([]string(nil), o.Portfolio...)
		return cfg, nil
	}
	f, err := core.NewSchedulerFactory(o.Scheduler, o.PCTDepth)
	if err != nil {
		return Config{}, err
	}
	cfg.Scheduler = o.Scheduler
	cfg.Sequential = f.Sequential()
	if f.Sequential() {
		cfg.Workers = 1
	}
	return cfg, nil
}
