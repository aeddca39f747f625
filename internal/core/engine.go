package core

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// Test describes one systematic test: an entry function that builds the
// harness (creating machines, wiring monitors' subjects) plus constructors
// for the specification monitors, fresh per execution.
type Test struct {
	Name string
	// Entry runs as machine 0. It typically creates the harness machines
	// and returns; it may also drive a scenario itself using Receive.
	Entry func(ctx *Context)
	// Monitors are constructors invoked before each execution.
	Monitors []func() Monitor
	// Faults is the fault budget the scenario is built for — e.g. a
	// fail-and-repair scenario declares the one crash its repair story
	// revolves around. Options.Faults, when set, replaces it wholesale;
	// the zero budget, here or there, disables the fault plane (see
	// Faults).
	Faults Faults
}

// Options bounds and configures an engine run. The zero value is usable:
// random scheduler, 10,000 executions of up to 10,000 steps each, one
// exploration worker per CPU.
//
// The JSON form is the plan a distributed coordinator publishes to its
// agents (internal/dist): a field that shapes the schedule space or a
// verdict carries a wire name, a field that only says how this machine runs
// the plan is `json:"-"`. A new field must take one side or the other —
// dist's TestPlanOnTheWireIsOptions fails on an untagged one.
type Options struct {
	// Scheduler names the exploration strategy: any registered scheduler
	// ("random" — the default —, "pct", "rr", "delay", "mutational", or a
	// name added via RegisterScheduler). Ignored when
	// Portfolio is non-empty.
	Scheduler string `json:"scheduler,omitempty"`
	// Portfolio, when non-empty, races the named schedulers against the
	// test instead of running the single Scheduler: the members'
	// iterations interleave round-robin into one plan that the worker pool
	// drains, the run stops on the first confirmed bug in plan order, and
	// Result.Portfolio/Winner attribute the win. Iterations and MaxSteps
	// apply to each member individually. Duplicates are allowed and
	// useful: each member derives an independent base seed from its index,
	// so two "random" members explore disjoint pseudo-random schedule
	// spaces.
	Portfolio []string `json:"portfolio,omitempty"`
	// Seed selects the pseudo-random schedule sequence. Each execution i
	// derives its own sub-seed purely from (Seed, i), so runs are
	// reproducible end to end and independent of worker count.
	Seed int64 `json:"seed"`
	// Iterations is the maximum number of executions (default 10,000).
	Iterations int `json:"iterations"`
	// MaxSteps bounds each execution (default 10,000). A monitor hot at the
	// bound gets a uniform tail: a liveness bug if still hot at twice the
	// bound, which no execution runs past.
	MaxSteps int `json:"max_steps"`
	// Workers is the size of the run's one pool of exploration workers
	// (default runtime.NumCPU()). Every worker serves every member of a
	// portfolio — a three-member portfolio at Workers: 1 runs on one
	// worker — and owns an independent Scheduler instance per member, so
	// no mutable scheduler state is shared. Trace replay is
	// single-threaded, whatever this setting.
	//
	// The Result — including which bug is found, its trace, Executions and
	// TotalSteps — is identical for every worker count. Schedulers whose
	// executions are pure functions of the per-iteration seed (random, rr)
	// have this property natively; for the adaptive schedulers (pct, delay)
	// the engine runs iteration 0 first as a calibration execution and pins
	// the observed step count as a shared program-length estimate on every
	// scheduler instance (LengthHinted), so their decision streams become
	// pure functions of the iteration seed too.
	Workers int `json:"-"`
	// NoLivenessBoundCheck disables the treat-bound-as-infinite liveness
	// heuristic: an execution ends clean at MaxSteps, with no tail past it
	// (hot-at-termination is still checked).
	NoLivenessBoundCheck bool `json:"no_liveness_bound_check,omitempty"`
	// NoReplayLog skips the confirmation replay that re-runs a buggy
	// schedule to collect the detailed execution log.
	NoReplayLog bool `json:"-"`
	// NoReuse disables the pooled execution engine: every execution gets
	// a freshly allocated Runtime with fresh machine goroutines, inboxes
	// and buffers, as in the pre-pooling engine. Pooling is semantically
	// invisible — for a fixed seed, results, traces and statistics are
	// bit-identical with pooling on and off (the pooling determinism tests
	// enforce it) — so this is an escape hatch for debugging and for
	// benchmarking the pool itself, not a correctness knob.
	NoReuse bool `json:"-"`
	// Faults is the run's fault budget: nil runs the test's declared one
	// (Test.Faults), a set value replaces it wholesale, and the zero
	// budget turns the fault plane off. Budgets bound the faults the
	// scheduler may inject per execution — see Faults and the Context
	// fault primitives (CrashPoint, SendUnreliable).
	Faults *Faults `json:"faults,omitempty"`

	// debugCheckEnabled turns on the per-step enabled-set cross-check for
	// every runtime of the run: the incrementally maintained set is
	// verified against a from-scratch rebuild at each scheduling step
	// (see enabled.go). Unexported — a testing hook, not API; the
	// `enabledcheck` build tag is the whole-binary equivalent.
	debugCheckEnabled bool
}

// Engine defaults, applied by Resolve and stated nowhere else.
const (
	defaultScheduler  = "random"
	defaultIterations = 10000
	defaultMaxSteps   = 10000
)

// Resolve is the one place a run's configuration is checked and completed:
// it validates o (negative bounds, the scheduler and every portfolio member
// against the registry, a plan too large to number, the fault budgets of o
// and of t), applies the engine defaults (scheduler "random", 10,000
// iterations of 10,000 steps, one worker per CPU). Explore, ExploreShard and Replay start with it; the
// public package's Resolve and PlanSize and the distributed coordinator
// call it too, so what a viewer reports is what a run uses. A caller with
// no test at hand passes the zero Test. Errors are
// *ConfigError values naming the field at fault; the result of a successful
// call resolves to itself.
func (o Options) Resolve(t Test) (Options, error) {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Iterations", o.Iterations},
		{"MaxSteps", o.MaxSteps},
		{"Workers", o.Workers},
	} {
		if c.v < 0 {
			return o, &ConfigError{
				Field:  "Options." + c.name,
				Reason: fmt.Sprintf("must be non-negative, got %d", c.v),
			}
		}
	}
	if o.Faults != nil {
		if err := o.Faults.validate("Options.Faults"); err != nil {
			return o, err
		}
	}
	if err := t.Faults.validate("Test.Faults"); err != nil {
		return o, err
	}

	if o.Scheduler == "" {
		o.Scheduler = defaultScheduler
	}
	if o.Iterations == 0 {
		o.Iterations = defaultIterations
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = defaultMaxSteps
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}

	for m, name := range o.Members() {
		if _, err := lookupScheduler(name); err != nil {
			if len(o.Portfolio) > 0 {
				err.Field = fmt.Sprintf("Options.Portfolio[%d]", m)
			}
			return o, err
		}
	}
	// The loop numbers the plan's positions, and the one past its last, in
	// an int64.
	if nm := int64(len(o.Members())); int64(o.Iterations) > (math.MaxInt64-1)/nm {
		return o, &ConfigError{
			Field:  "Options.Iterations",
			Reason: fmt.Sprintf("must be at most %d for a plan of %d member(s), got %d", (math.MaxInt64-1)/nm, nm, o.Iterations),
		}
	}
	return o, nil
}

// Members returns the schedulers a run of o races: the portfolio, or the
// single scheduler as a portfolio of one. Member m owns the global
// positions g with g % len(Members()) == m.
func (o Options) Members() []string {
	if len(o.Portfolio) > 0 {
		return o.Portfolio
	}
	return []string{o.Scheduler}
}

// EffectiveFaults reports the fault budget a run of t under these options
// uses: Options.Faults when set, else the test's own declared budget. It is
// the single resolution the engine applies, exported so callers surfacing
// the budget (CLI banners, reports) cannot drift from it.
func (o Options) EffectiveFaults(t Test) Faults {
	if o.Faults != nil {
		return *o.Faults
	}
	return t.Faults
}

// execSeed derives execution i's seed from a base seed (the run's, or a
// portfolio member's). The derivation depends only on (seed, i) — never on
// which worker runs the iteration — which is what makes the explored
// schedule set a deterministic partition of the iteration space.
func execSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15))
}

func (o Options) runtimeConfig(t Test, collectLog bool) runtimeConfig {
	return runtimeConfig{
		maxSteps:        o.MaxSteps,
		livenessAtBound: !o.NoLivenessBoundCheck,
		collectLog:      collectLog,
		logCap:          defaultLogCap,
		faults:          o.EffectiveFaults(t),
		checkEnabled:    o.debugCheckEnabled,
	}
}

// Result summarizes an engine run.
type Result struct {
	// BugFound reports whether a violation was found.
	BugFound bool
	// Report describes the violation (nil if none). Report.Trace replays
	// it; Report.Log holds the detailed event log from the confirmation
	// replay.
	Report *BugReport
	// Executions is the number of executions performed, including the
	// buggy one.
	Executions int
	// TotalSteps is the number of scheduling steps across all executions.
	TotalSteps int64
	// Choices is the number of nondeterministic choices in the first
	// buggy execution — the paper's #NDC column.
	Choices int
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// Portfolio holds per-member statistics when the run raced a scheduler
	// portfolio (Options.Portfolio); nil for single-scheduler runs.
	Portfolio []MemberStats
	// Winner is the index into Portfolio of the member whose bug won the
	// race, -1 when a portfolio run found no bug. Zero (and meaningless)
	// for single-scheduler runs; use BugFound there.
	Winner int
	// Corpus holds the coverage fingerprints of the final exploration
	// corpus, in insertion (canonical iteration) order, when the run used
	// a feedback scheduler; nil otherwise. Deterministic for a fixed seed
	// and budget, independent of worker count.
	Corpus []uint64
}

// String renders a one-line summary.
func (res Result) String() string {
	if res.BugFound {
		if res.Portfolio != nil {
			return fmt.Sprintf("bug found by the %s scheduler (member %d, iteration %d) after %d execution(s), %.2fs, %d choices: %s",
				res.Portfolio[res.Winner].Scheduler, res.Winner, res.Report.Iteration,
				res.Executions, res.Elapsed.Seconds(), res.Choices, res.Report.Error())
		}
		return fmt.Sprintf("bug found after %d execution(s), %.2fs, %d choices: %s",
			res.Executions, res.Elapsed.Seconds(), res.Choices, res.Report.Error())
	}
	return fmt.Sprintf("no bug in %d execution(s), %.2fs", res.Executions, res.Elapsed.Seconds())
}

// Explore systematically tests t: it executes the harness repeatedly, each
// time under a different schedule, until a safety or liveness violation is
// found or the iteration budget is spent. This is the testing process of
// the paper's §2: fully automatic, no false positives (assuming an accurate
// harness), every bug witnessed by a replayable trace. It is the engine's
// single entry point: Options.Scheduler selects a single strategy,
// Options.Portfolio races several, and both report the one Result shape.
//
// A configuration error — a negative bound, an unknown scheduler or
// portfolio member, an invalid fault budget — is returned as a typed
// *ConfigError before any execution starts; Explore never panics on
// configuration.
//
// Explore is the exploration loop (exploreRange, loop.go) over the whole
// plan [0, PlanSize): member m's execution i sits at global position
// i*len(members)+m and its schedule depends only on (Seed, m, i) — for a
// single scheduler, only on (Seed, i). Positions are claimed by
// Options.Workers goroutines; when a violation is found the loop cancels
// every in-flight execution at a higher position, finishes the lower ones,
// and reports the bug at the lowest position — the one a single-worker run
// of the same seed reaches first. The statistics count exactly the
// executions at or below that position, so for a fixed seed the Result —
// winning member, iteration, trace, Executions, TotalSteps, per-member
// attribution — is bit-identical at any worker count.
func Explore(t Test, o Options) (Result, error) {
	o, err := o.Resolve(t)
	if err != nil {
		return Result{}, err
	}
	portfolio := len(o.Portfolio) > 0
	ex, err := exploreRange(t, o, Shard{To: PlanSize(o)}, portfolio)
	if err != nil {
		return Result{}, err
	}
	res := Result{BugFound: ex.bug != nil, Report: ex.bug}
	for _, ms := range ex.stats {
		res.Executions += ms.Executions
		res.TotalSteps += ms.TotalSteps
	}
	if portfolio {
		res.Portfolio, res.Winner = ex.stats, -1
	}
	if ex.corpus != nil {
		res.Corpus = ex.corpus.Fingerprints()
	}
	if ex.bug != nil {
		res.Choices = len(ex.bug.Trace.Decisions)
		if portfolio {
			res.Winner = int(ex.bugPos.Load() % ex.nm)
			ex.stats[res.Winner].Winner = true
		}
	}
	res.Elapsed = time.Since(ex.start)
	if ex.bug != nil && !o.NoReplayLog {
		// The confirmation replay is single-threaded: it must reproduce
		// the violation decision for decision.
		attachReplayLog(t, o, ex.bug)
	}
	return res, nil
}

// MustExplore is Explore for callers whose configuration is statically
// known to be valid — benchmarks and internal tests. It panics on a
// configuration error; user-facing code goes through the public package's
// gostorm.Explore instead.
func MustExplore(t Test, o Options) Result {
	res, err := Explore(t, o)
	if err != nil {
		panic(err)
	}
	return res
}

// attachReplayLog re-runs the buggy schedule with log collection to give
// the report a detailed, human-readable event log — and doubles as a
// determinism check: the replay must reproduce the same violation.
func attachReplayLog(t Test, o Options, rep *BugReport) {
	confirm, err := Replay(t, rep.Trace, o)
	if err != nil {
		rep.Log = []string{fmt.Sprintf("replay failed: %v (is the system-under-test deterministic?)", err)}
		return
	}
	if confirm == nil {
		rep.Log = []string{"replay did not reproduce the violation (is the system-under-test deterministic?)"}
		return
	}
	rep.Log = confirm.Log
}

// Replay re-executes a recorded trace and returns the violation it
// reproduces (nil if the execution consumes the whole trace and completes
// cleanly — which for a trace recorded from a bug indicates nondeterminism
// in the system-under-test). The Options must match the recording run's
// bounds. The fault budget is taken from the trace itself — it shaped which
// fault choice points the recording run presented, so the trace is
// authoritative; Options.Faults and the test's declared budget are ignored
// here.
//
// The returned error is a *ConfigError for configuration mistakes and a
// divergence error when the system under test did not follow the trace —
// including an execution that ends clean with recorded decisions left over.
func Replay(t Test, tr *Trace, o Options) (*BugReport, error) {
	if tr == nil {
		// A caller that ignored DecodeTrace's error lands here; a typed
		// error beats the nil dereference it would otherwise hit.
		return nil, &ConfigError{Field: "Trace", Reason: "must be non-nil (did DecodeTrace fail?)"}
	}
	o, err := o.Resolve(t)
	if err != nil {
		return nil, err
	}
	sched := newReplayScheduler(tr)
	cfg := o.runtimeConfig(t, true)
	cfg.faults = tr.Faults
	r := newRuntime(sched, cfg)
	rep := r.execute(t)
	if r.divergence != nil {
		return nil, r.divergence
	}
	if rep == nil {
		if n := len(tr.Decisions); sched.pos < n {
			return nil, replayDivergence{msg: fmt.Sprintf("the execution ended without a violation after %d of the %d recorded decisions (is MaxSteps, %d here, below the recording run's, or is the trace from another test?)", sched.pos, n, o.MaxSteps)}
		}
		return nil, nil
	}
	rep.Log = r.logLines()
	rep.Trace = tr
	return rep, nil
}

// splitmix64 is the SplitMix64 mixing function, used to derive independent
// per-execution seeds from (base seed, iteration).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
