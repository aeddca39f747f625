package gostorm

import (
	"github.com/gostorm/gostorm/internal/core"
)

// Explore systematically tests t: it executes the harness repeatedly,
// each time under a different schedule, until a safety or liveness
// violation is found or the iteration budget is spent — the paper's
// testing process, fully automatic, with every bug witnessed by a
// replayable trace.
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
// or portfolio member, a negative fault budget — is returned as a typed
// *ConfigError naming the Options field at fault before any execution
// starts; Explore never panics on configuration.
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

// Config is the resolved configuration of a prospective run, as Resolve
// returns it: the engine's own option set with every default applied — the
// one list of what a run can be told, not a copy of it.
type Config = core.Options

// Resolve reports the configuration a run of t under the given options
// would use, without executing anything, so tools — CLI banners,
// dashboards — report exactly what Explore will do: the engine's own
// validation and defaults, Scheduler "" for a portfolio run, and Faults
// the effective budget, never nil (the last WithFaults or WithNoFaults,
// else the test's declared one). Invalid options are reported as the same
// *ConfigError, on the same Options field, Explore would return.
func Resolve(t Test, opts ...Option) (Config, error) {
	c, err := resolve(opts)
	if err != nil {
		return Config{}, err
	}
	o, err := c.opts.Resolve(t)
	if err != nil {
		return Config{}, err
	}
	f := o.EffectiveFaults(t)
	o.Faults = &f
	if len(o.Portfolio) > 0 {
		o.Scheduler = ""
	}
	return o, nil
}
