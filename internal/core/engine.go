package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	// revolves around. Options.Faults, when any field is set, overrides
	// it wholesale; the zero value here and there disables the fault
	// plane (see Faults).
	Faults Faults
}

// Options bounds and configures an engine run. The zero value is usable:
// random scheduler, 10,000 executions of up to 10,000 steps each, one
// exploration worker per CPU.
type Options struct {
	// Scheduler names the exploration strategy: any registered scheduler
	// ("random" — the default —, "pct", "rr", "delay", "dfs", or a name
	// added via RegisterScheduler). Ignored when Portfolio is non-empty.
	Scheduler string
	// Portfolio, when non-empty, races the named schedulers against the
	// test instead of running the single Scheduler: the worker budget is
	// split across the members, the fleet stops on the first confirmed
	// bug, and Result.Portfolio/Winner attribute the win. Duplicates are
	// allowed and useful: each member derives an independent base seed
	// from its index, so two "random" members explore disjoint
	// pseudo-random schedule spaces.
	Portfolio []string
	// PCTDepth is the number of priority change points for "pct"
	// (default 2, the paper's configuration).
	PCTDepth int
	// Seed selects the pseudo-random schedule sequence. Each execution i
	// derives its own sub-seed purely from (Seed, i), so runs are
	// reproducible end to end and independent of worker count.
	Seed int64
	// Iterations is the maximum number of executions (default 10,000).
	Iterations int
	// MaxSteps bounds each execution; reaching it treats the execution as
	// infinite for liveness checking (default 10,000).
	MaxSteps int
	// CorpusSize bounds the exploration corpus of a feedback (coverage-
	// guided) scheduler such as "mutational": the first CorpusSize novel
	// coverage fingerprints, in canonical iteration order, have their
	// decision sequences recorded for mutation (default 64). Ignored by
	// schedulers that declare no feedback.
	CorpusSize int
	// Workers is the number of parallel exploration workers (default
	// runtime.NumCPU()). Each worker owns an independent Scheduler built
	// by the run's SchedulerFactory, so no mutable scheduler state is
	// shared. Sequential schedulers (dfs) and trace replay always run on
	// a single worker regardless of this setting.
	//
	// For every non-sequential scheduler the Result — including which bug
	// is found, its trace, Executions and TotalSteps — is identical for
	// every worker count. Schedulers whose executions are pure functions
	// of the per-iteration seed (random, rr) have this property natively;
	// for the adaptive schedulers (pct, delay) the engine runs iteration 0
	// first as a calibration execution and pins the observed step count as
	// a shared program-length estimate on every scheduler instance, so
	// their decision streams become pure functions of the iteration seed
	// too (see SchedulerFactory.WithLengthHint).
	Workers int
	// Temperature, when positive, reports a liveness violation as soon as
	// a monitor stays hot for that many consecutive steps, instead of
	// waiting for the full bound.
	Temperature int
	// StopAfter, when positive, bounds the total wall-clock time. The
	// deadline is checked at execution granularity — before each worker
	// starts its next execution — so a run can overshoot by the length of
	// the executions in flight (at most MaxSteps scheduling steps each).
	StopAfter time.Duration
	// NoDeadlockDetection disables reporting machines stuck in Receive.
	NoDeadlockDetection bool
	// NoLivenessBoundCheck disables the treat-bound-as-infinite liveness
	// heuristic (hot-at-termination is still checked).
	NoLivenessBoundCheck bool
	// NoReplayLog skips the confirmation replay that re-runs a buggy
	// schedule to collect the detailed execution log.
	NoReplayLog bool
	// LogCap bounds the number of lines the replay log may collect per
	// execution; 0 means the default (100,000 lines). Negative values are
	// rejected up front. Exploration executions collect no log, so the cap
	// only shapes replays and confirmation replays.
	LogCap int
	// NoReuse disables the pooled execution engine: every execution gets
	// a freshly allocated Runtime with fresh machine goroutines, inboxes
	// and buffers, as in the pre-pooling engine. Pooling is semantically
	// invisible — for a fixed seed, results, traces and statistics are
	// bit-identical with pooling on and off (the pooling determinism tests
	// enforce it) — so this is an escape hatch for debugging and for
	// benchmarking the pool itself, not a correctness knob.
	NoReuse bool
	// Faults overrides the test's fault budget (Test.Faults) when any
	// field is set; the zero value defers to the test. Budgets bound the
	// faults the scheduler may inject per execution — see Faults and the
	// Context fault primitives (CrashPoint, SendUnreliable).
	Faults Faults
	// NoFaults disables the fault plane outright, overriding both Faults
	// and the test's declared budget — the way to run a fault-budgeted
	// scenario crash-free (an all-zero Faults cannot express this, since
	// the zero value defers to the test).
	NoFaults bool
	// Progress, if non-nil, is called after every completed execution —
	// including the buggy final one — with the number completed so far.
	// Parallel workers serialize the calls under a lock, so the callback
	// need not be goroutine-safe; counts are strictly increasing. When a
	// parallel run finds a bug, executions already in flight at higher
	// iteration indices still complete and are counted, so the final
	// Progress count can exceed the canonical Executions of the Result.
	Progress func(executions int)

	// debugCheckEnabled turns on the per-step enabled-set cross-check for
	// every runtime of the run: the incrementally maintained set is
	// verified against a from-scratch rebuild at each scheduling step
	// (see enabled.go). Unexported — a testing hook, not API; the
	// `enabledcheck` build tag is the whole-binary equivalent.
	debugCheckEnabled bool
}

// validate rejects option values that used to be silently reinterpreted
// (negative bounds fell back to defaults, masking caller bugs) with
// typed ConfigErrors. Explore and Replay return the error before any
// execution starts.
func (o Options) validate() *ConfigError {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Iterations", o.Iterations},
		{"MaxSteps", o.MaxSteps},
		{"Workers", o.Workers},
		{"PCTDepth", o.PCTDepth},
		{"Temperature", o.Temperature},
		{"LogCap", o.LogCap},
		{"CorpusSize", o.CorpusSize},
	} {
		if c.v < 0 {
			return &ConfigError{
				Field:  "Options." + c.name,
				Reason: fmt.Sprintf("must be non-negative, got %d", c.v),
			}
		}
	}
	for m, name := range o.Portfolio {
		if _, err := lookupScheduler(name); err != nil {
			return &ConfigError{
				Field:  fmt.Sprintf("Options.Portfolio[%d]", m),
				Reason: err.Reason,
			}
		}
	}
	return o.Faults.validate("Options.Faults")
}

// validateTest rejects invalid test declarations (negative fault budgets
// would otherwise silently disable the fault plane — a harness typo must
// fail loudly, exactly like a bad Options field).
func validateTest(t Test) *ConfigError {
	return t.Faults.validate("Test.Faults")
}

// effectiveFaults resolves the fault budget of a run: disabled when
// NoFaults is set, else Options.Faults when any field is set, else the
// test's own declared budget.
func effectiveFaults(t Test, o Options) Faults {
	if o.NoFaults {
		return Faults{}
	}
	if o.Faults != (Faults{}) {
		return o.Faults
	}
	return t.Faults
}

// EffectiveFaults reports the fault budget a run of t under these options
// uses — the single resolution (NoFaults over Options.Faults over
// Test.Faults) the engine applies, exported so callers surfacing the
// budget (CLI banners, reports) cannot drift from it.
func (o Options) EffectiveFaults(t Test) Faults { return effectiveFaults(t, o) }

// ValidateTest checks a test declaration without running it, returning
// the same *ConfigError Explore would (a negative declared fault budget
// must fail loudly, not silently disable the fault plane).
func ValidateTest(t Test) error {
	if err := validateTest(t); err != nil {
		return err
	}
	return nil
}

// Validate checks the options without running anything, returning the
// same *ConfigError Explore would: negative bounds, unknown portfolio
// members, invalid fault budgets. The scheduler name is validated by
// NewSchedulerFactory (Explore's first act), so configuration viewers
// should check both.
func (o Options) Validate() error {
	if err := o.validate(); err != nil {
		return err
	}
	return nil
}

// WithDefaults returns the options with every unset field resolved to the
// engine default (scheduler "random", 10,000 iterations of 10,000 steps,
// PCT depth 2, one worker per CPU, the default log cap). Explore applies
// it internally; it is exported so configuration viewers — the public
// package's Resolve, CLI banners — report exactly what a run will use.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Scheduler == "" {
		o.Scheduler = "random"
	}
	if o.Iterations <= 0 {
		o.Iterations = 10000
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 10000
	}
	if o.PCTDepth <= 0 {
		o.PCTDepth = 2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.LogCap <= 0 {
		o.LogCap = defaultLogCap
	}
	if o.CorpusSize <= 0 {
		o.CorpusSize = defaultCorpusSize
	}
	return o
}

// execSeed derives execution i's seed from the base seed. The derivation
// depends only on (Seed, i) — never on which worker runs the iteration —
// which is what makes the explored schedule set a deterministic partition
// of the iteration space.
func (o Options) execSeed(i int) int64 {
	return int64(splitmix64(uint64(o.Seed) + uint64(i)*0x9E3779B97F4A7C15))
}

func (o Options) runtimeConfig(t Test, collectLog bool) runtimeConfig {
	return runtimeConfig{
		maxSteps:          o.MaxSteps,
		temperature:       o.Temperature,
		livenessAtBound:   !o.NoLivenessBoundCheck,
		deadlockDetection: !o.NoDeadlockDetection,
		collectLog:        collectLog,
		logCap:            o.LogCap,
		faults:            effectiveFaults(t, o),
		checkEnabled:      o.debugCheckEnabled,
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
	// Executions is the number of executions performed (including the
	// buggy one).
	Executions int
	// TotalSteps is the number of scheduling steps across all executions.
	TotalSteps int64
	// Choices is the number of nondeterministic choices in the first
	// buggy execution — the paper's #NDC column.
	Choices int
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// Exhausted reports that the scheduler covered its entire schedule
	// space (only the dfs scheduler does). A portfolio run reports
	// exhaustion only when every member exhausted its space.
	Exhausted bool
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
	suffix := ""
	if res.Exhausted {
		suffix = " (schedule space exhausted)"
	}
	return fmt.Sprintf("no bug in %d execution(s), %.2fs%s", res.Executions, res.Elapsed.Seconds(), suffix)
}

// Explore systematically tests t: it executes the harness repeatedly, each
// time under a different schedule, until a safety or liveness violation is
// found, the iteration/time budget is exhausted, or the schedule space is
// fully covered. This is the testing process of the paper's §2: fully
// automatic, no false positives (assuming an accurate harness), every bug
// witnessed by a replayable trace. It is the engine's single entry point:
// Options.Scheduler selects a single strategy, Options.Portfolio races
// several (see explorePortfolio for the portfolio determinism
// contract), and both paths report the one Result shape.
//
// A configuration error — a negative bound, an unknown scheduler or
// portfolio member, an invalid fault budget — is returned as a typed
// *ConfigError before any execution starts; Explore never panics on
// configuration.
//
// Exploration fans out across Options.Workers goroutines, each owning an
// independent scheduler instance; execution i's schedule depends only on
// (Seed, i) — and, for portfolios, member m's execution i only on
// (Seed, m, i). When a violation is found the engine cancels every
// in-flight execution at a higher canonical position, finishes the lower
// ones, and reports the bug at the lowest position — exactly the bug a
// single-worker run of the same seed reports first.
func Explore(t Test, o Options) (Result, error) {
	if err := o.validate(); err != nil {
		return Result{}, err
	}
	if err := validateTest(t); err != nil {
		return Result{}, err
	}
	o = o.withDefaults()
	if len(o.Portfolio) > 0 {
		return explorePortfolio(t, o)
	}
	return exploreSingle(t, o)
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

// exploreSingle is the single-scheduler exploration path. Options have
// been validated and defaulted.
func exploreSingle(t Test, o Options) (Result, error) {
	f, err := NewSchedulerFactory(o.Scheduler, o.PCTDepth)
	if err != nil {
		return Result{}, err
	}
	workers := o.Workers
	if f.Sequential() {
		// The scheduler enumerates its space statefully across executions
		// (dfs backtracking); partitioning iterations would skip branches.
		workers = 1
	}
	if workers > o.Iterations {
		workers = o.Iterations
	}
	st := runState{start: time.Now()}
	if f.Adaptive() {
		if res, done := calibrate(t, o, &f, &st); done {
			return res, nil
		}
	}
	if f.Feedback() {
		// Feedback schedulers need the generation-barrier loop whatever the
		// worker count: the corpus evolves between rounds. (A calibration
		// execution, if any, ran corpus-less — iteration 0 has no corpus to
		// mutate anyway — and contributes no candidate.)
		return runFeedback(t, o, f, workers, st), nil
	}
	if workers <= 1 {
		return runSequential(t, o, f.New(), st), nil
	}
	return runParallel(t, o, f, workers, st), nil
}

// runState carries exploration progress made before the main loop starts:
// the adaptive schedulers' calibration execution at iteration 0.
type runState struct {
	start time.Time
	first int   // first iteration index the main loop runs
	execs int   // executions already performed
	steps int64 // scheduling steps already performed
}

// calibrate performs iteration 0 with a fresh scheduler and pins the
// observed step count on the factory as the shared program-length estimate
// (see SchedulerFactory.WithLengthHint). Iteration 0 itself is already
// deterministic — an adaptive scheduler's first execution has no history
// to adapt to — so the estimate, and with it every later iteration's
// decision stream, is a pure function of the seed and independent of
// worker count. Returns done=true when the run is over (bug at iteration
// 0, a single-iteration budget, or the deadline).
func calibrate(t Test, o Options, f *SchedulerFactory, st *runState) (Result, bool) {
	sched := f.New()
	seed := o.execSeed(0)
	if !sched.Prepare(seed, o.MaxSteps) {
		return Result{Exhausted: true, Elapsed: time.Since(st.start)}, true
	}
	r := newRuntime(sched, o.runtimeConfig(t, false))
	rep := r.execute(t)
	st.first, st.execs, st.steps = 1, 1, int64(r.steps)
	if o.Progress != nil {
		o.Progress(1)
	}
	if rep != nil {
		rep.Trace = newTrace(t.Name, sched.Name(), seed, effectiveFaults(t, o), r.dec.decode())
		rep.Iteration = 0
		res := Result{
			BugFound:   true,
			Report:     rep,
			Executions: 1,
			TotalSteps: int64(r.steps),
			Choices:    r.dec.len(),
			Elapsed:    time.Since(st.start),
		}
		if !o.NoReplayLog {
			attachReplayLog(t, o, rep)
		}
		return res, true
	}
	*f = f.WithLengthHint(r.steps)
	if o.Iterations <= 1 || (o.StopAfter > 0 && time.Since(st.start) > o.StopAfter) {
		return Result{Executions: 1, TotalSteps: int64(r.steps), Elapsed: time.Since(st.start)}, true
	}
	return Result{}, false
}

// runSequential is the single-worker engine loop, also used for sequential
// schedulers where iteration order is part of the exploration strategy.
func runSequential(t Test, o Options, sched Scheduler, st runState) Result {
	start := st.start
	pool := newExecPool(o)
	defer pool.release()
	cfg := o.runtimeConfig(t, false)
	res := Result{Executions: st.execs, TotalSteps: st.steps}
	for i := st.first; i < o.Iterations; i++ {
		seed := o.execSeed(i)
		if !sched.Prepare(seed, o.MaxSteps) {
			res.Exhausted = true
			break
		}
		r := pool.runtime(sched, cfg)
		rep := r.execute(t)
		res.Executions++
		res.TotalSteps += int64(r.steps)
		if o.Progress != nil {
			o.Progress(res.Executions)
		}
		if rep != nil {
			rep.Trace = newTrace(t.Name, sched.Name(), seed, effectiveFaults(t, o), r.dec.decode())
			rep.Iteration = i
			res.BugFound = true
			res.Report = rep
			res.Choices = r.dec.len()
			res.Elapsed = time.Since(start)
			if !o.NoReplayLog {
				attachReplayLog(t, o, rep)
			}
			return res
		}
		if o.StopAfter > 0 && time.Since(start) > o.StopAfter {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// runParallel explores the iteration space with a pool of workers. Workers
// claim iteration indices from a shared counter; each runs its executions
// on a private scheduler instance, so the only shared mutable state is the
// aggregation below.
//
// First-bug-wins, deterministically: bugIndex holds the lowest buggy
// iteration seen so far. Workers refuse to start — and abort in-flight —
// executions at or beyond it (those can only be superseded), but always
// finish executions at lower indices, which may lower it further. When the
// pool drains, every iteration below the final bugIndex has completed
// cleanly, so the reported bug is the first one in iteration order and the
// canonical statistics (Executions, TotalSteps, Choices) match what a
// Workers:1 run of a per-iteration-deterministic scheduler reports.
func runParallel(t Test, o Options, f SchedulerFactory, workers int, st runState) Result {
	start := st.start
	var deadline time.Time
	if o.StopAfter > 0 {
		deadline = start.Add(o.StopAfter)
	}

	var (
		next      atomic.Int64 // next unclaimed iteration index
		bugIndex  atomic.Int64 // lowest buggy iteration so far (Iterations = none)
		completed atomic.Int64 // executions run to completion

		// logs[w] is written by worker w alone (and only read after the
		// pool drains), so it needs no lock.
		logs = make(stepLogs, workers)

		mu        sync.Mutex // guards the fields below, plus Progress calls
		bugReport *BugReport
		exhausted bool
	)
	next.Store(int64(st.first))
	completed.Store(int64(st.execs))
	bugIndex.Store(int64(o.Iterations))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := f.New()
			pool := newExecPool(o)
			defer pool.release()
			// The abort predicate is hoisted out of the loop: it reads the
			// worker-local current iteration, written only by this goroutine
			// between executions, so one closure serves every execution
			// instead of allocating one per iteration.
			var cur int64
			cfg := o.runtimeConfig(t, false)
			cfg.abort = func() bool { return cur >= bugIndex.Load() }
			for {
				i := int(next.Add(1) - 1)
				if i >= o.Iterations || int64(i) >= bugIndex.Load() {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				seed := o.execSeed(i)
				if !sched.Prepare(seed, o.MaxSteps) {
					mu.Lock()
					exhausted = true
					mu.Unlock()
					return
				}
				cur = int64(i)
				r := pool.runtime(sched, cfg)
				rep := r.execute(t)
				if r.aborted {
					// Superseded mid-flight by a bug at a lower index; the
					// partial execution contributes nothing.
					continue
				}
				logs[w] = append(logs[w], stepEntry{i, int64(r.steps)})
				if o.Progress == nil {
					completed.Add(1)
				} else {
					// Increment under the lock so Progress counts stay
					// strictly increasing across workers.
					mu.Lock()
					o.Progress(int(completed.Add(1)))
					mu.Unlock()
				}
				if rep != nil {
					mu.Lock()
					if int64(i) < bugIndex.Load() {
						bugIndex.Store(int64(i))
						rep.Trace = newTrace(t.Name, sched.Name(), seed, effectiveFaults(t, o), r.dec.decode())
						rep.Iteration = i
						bugReport = rep
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	res := Result{Exhausted: exhausted}
	if bugReport != nil {
		// Canonical, worker-count-independent statistics: only the
		// iterations a sequential run would have performed count.
		win := int(bugIndex.Load())
		res.BugFound = true
		res.Report = bugReport
		res.Choices = len(bugReport.Trace.Decisions)
		res.Executions = win + 1
		res.TotalSteps = st.steps + logs.sum(win)
		res.Elapsed = time.Since(start)
		if !o.NoReplayLog {
			// The confirmation replay stays single-threaded: it must
			// reproduce the violation decision for decision.
			attachReplayLog(t, o, bugReport)
		}
		return res
	}
	res.Executions = int(completed.Load())
	res.TotalSteps = st.steps + logs.sum(o.Iterations)
	res.Elapsed = time.Since(start)
	return res
}

// stepEntry records that iteration iter ran to completion in steps
// scheduling steps. Each exploration worker appends one per execution it
// completes, so a run's bookkeeping is proportional to the executions
// done, not to the iteration budget requested.
type stepEntry struct {
	iter  int
	steps int64
}

// stepLogs holds one append-only log per exploration worker.
type stepLogs [][]stepEntry

// sum totals the steps of the logged iterations up to and including win —
// the iterations a sequential run stopping at win would have performed.
func (l stepLogs) sum(win int) int64 {
	var total int64
	for _, log := range l {
		for _, e := range log {
			if e.iter <= win {
				total += e.steps
			}
		}
	}
	return total
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
// reproduces (nil if the execution completes cleanly — which for a trace
// recorded from a bug indicates nondeterminism in the system-under-test).
// The Options must match the recording run's bounds. The fault budget is
// taken from the trace itself — it shaped which fault choice points the
// recording run presented, so the trace is authoritative; Options.Faults
// and the test's declared budget are ignored here.
//
// The returned error is a *ConfigError for configuration mistakes and a
// divergence error when the system under test did not follow the trace.
func Replay(t Test, tr *Trace, o Options) (*BugReport, error) {
	if tr == nil {
		// A caller that ignored DecodeTrace's error lands here; a typed
		// error beats the nil dereference it would otherwise hit.
		return nil, &ConfigError{Field: "Trace", Reason: "must be non-nil (did DecodeTrace fail?)"}
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := validateTest(t); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	sched := newReplayScheduler(tr)
	sched.Prepare(0, o.MaxSteps)
	cfg := o.runtimeConfig(t, true)
	cfg.faults = tr.Faults
	r := newRuntime(sched, cfg)
	rep := r.execute(t)
	if r.divergence != nil {
		return nil, r.divergence
	}
	if rep != nil {
		rep.Log = r.log
		rep.Trace = tr
	}
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
