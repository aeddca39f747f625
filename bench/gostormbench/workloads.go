package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/dist"
)

// segStats is what one segment of fixed work did. Executions and steps
// must be equal in every segment of a run: the work is the same plan under
// the same seed, and the engine is deterministic.
type segStats struct {
	execs int64
	steps int64
	// parts are the wall times of the segment's separately timed parts, in
	// the same order in every segment of a run: one part for an Explore or
	// a fleet run, one per cell for the Table 2 sweep.
	parts []time.Duration
}

// wall is the segment's wall time.
func (s segStats) wall() time.Duration {
	var d time.Duration
	for _, p := range s.parts {
		d += p
	}
	return d
}

// quiet estimates the time a segment's work takes on an undisturbed
// machine: the sum over the parts of each part's fastest run. The work of a
// part is the same in every segment, so its times differ only by what else
// the machine was doing, and that only ever adds time. On a shared box the
// disturbance comes in plateaus of several seconds that slow a segment by up
// to 60 %; the median of a run's segments follows them, the fastest run of
// each part does not.
func quiet(segs []segStats) time.Duration {
	var d time.Duration
	for p := range segs[0].parts {
		best := segs[0].parts[p]
		for _, s := range segs[1:] {
			best = min(best, s.parts[p])
		}
		d += best
	}
	return d
}

// runner is a workload after set-up.
type runner struct {
	// segment does one segment's work under the tracing span parent.
	segment func(parent int) segStats
	// verify, when non-nil, runs once after the timed phase and checks a
	// segment's statistics against an independent computation.
	verify func(s segStats)
}

// workload is one of the benchmark's fixed input sets. Sizes are constants:
// both sides of a comparison must do the same work, so nothing here is
// calibrated at run time.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs under (capped at the
	// machine's CPU count). With one exploration worker the goroutine
	// handoff chain migrates between Ps at GOMAXPROCS=2, which makes the
	// same code 29 % slower and ±8 % noisy, so single-worker workloads pin 1.
	procs int
	// segSeconds is a segment's nominal duration on the reference 2-core
	// box. It only turns -seconds into a whole number of segments.
	segSeconds float64
	// build sets the workload up. It runs before every segment, so that
	// set-up is timed as often as the segments are.
	build func(b *bench) (runner, error)
}

var workloads = []workload{
	{name: "steps-replsys", procs: 1, segSeconds: 0.22, build: func(b *bench) (runner, error) {
		return exploreRunner(b, "replsys-fixed", b.size(90, 20))
	}},
	{name: "short-wal", procs: 1, segSeconds: 0.21, build: func(b *bench) (runner, error) {
		return exploreRunner(b, "wal-fixed", b.size(10000, 2000))
	}},
	{name: "hunt-table2", procs: 1, segSeconds: 3.2, build: huntRunner},
	{name: "fleet-mtable", procs: 2, segSeconds: 0.8, build: fleetRunner},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is the state of one run of the driver.
type bench struct {
	cfg config
	// tr is non-nil while a traced segment or a layer probe runs.
	tr *tracer
	// ops counts operations attempted (one Explore, Replay or fleet run);
	// failed counts those whose output was wrong.
	ops, failed int
	failures    []string
	// lastHunt is the latest Table 2 sweep, kept for the per-layer metrics.
	lastHunt *huntResult
}

func (b *bench) op() { b.ops++ }

// failf records a failed operation.
func (b *bench) failf(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// size picks the committed size, or the tiny one the tests run.
func (b *bench) size(full, smoke int) int {
	if b.cfg.smoke {
		return smoke
	}
	return full
}

// explore is one timed gostorm.Explore operation under a span.
func (b *bench) explore(parent int, t gostorm.Test, opts ...gostorm.Option) (gostorm.Result, time.Duration) {
	id := b.tr.start("gostorm.Explore", parent)
	t0 := time.Now()
	res, err := gostorm.Explore(t, opts...)
	wall := time.Since(t0)
	b.tr.end(id)
	b.op()
	if err != nil {
		b.failf("Explore(%s): %v", t.Name, err)
	}
	return res, wall
}

// exploreClean is explore on a scenario that must not report a bug.
func (b *bench) exploreClean(parent int, t gostorm.Test, opts ...gostorm.Option) (gostorm.Result, time.Duration) {
	res, wall := b.explore(parent, t, opts...)
	if res.BugFound {
		b.failf("clean scenario %s reported a bug: %v", t.Name, res.Report)
	}
	return res, wall
}

// exploreRunner is a workload whose segment is one Explore of a clean
// scenario: random scheduler, one worker, a fixed iteration budget.
func exploreRunner(b *bench, scenario string, iterations int) (runner, error) {
	sc, err := gostorm.ScenarioByName(scenario)
	if err != nil {
		return runner{}, err
	}
	test := sc.Test()
	opts := append(sc.Options(),
		gostorm.WithScheduler("random"), gostorm.WithWorkers(1),
		gostorm.WithSeed(b.cfg.seed), gostorm.WithIterations(iterations))
	if _, err := gostorm.Resolve(test, opts...); err != nil {
		return runner{}, err
	}
	return runner{segment: func(parent int) segStats {
		res, wall := b.exploreClean(parent, test, opts...)
		return segStats{execs: int64(res.Executions), steps: res.TotalSteps, parts: []time.Duration{wall}}
	}}, nil
}

// huntRows are the seeded bugs of the paper's Table 2 (case study 1, the
// MigratingTable bugs, the four custom-test-case rows) and this
// repository's other seeded bugs.
var huntRows = []string{
	"ExtentNodeLivenessViolation",
	"QueryAtomicFilterShadowing",
	"QueryStreamedLock",
	"QueryStreamedBackUpNewStream",
	"DeleteNoLeaveTombstonesEtag",
	"DeletePrimaryKey",
	"EnsurePartitionSwitchedFromPopulated",
	"TombstoneOutputETag",
	"QueryStreamedFilterShadowing-custom",
	"MigrateSkipPreferOld-custom",
	"MigrateSkipUseNewWithTombstones-custom",
	"InsertBehindMigrator-custom",
	"replsys-safety",
	"wal-torn-tail",
	"fabric-promotion-bug",
	"fabric-pipeline-crash",
}

// huntBudget is the execution budget of one cell, huntSeed the scheduler
// seed of every cell.
const (
	huntBudget      = 2000
	huntSmokeBudget = 10
	huntSeed        = 1
)

// huntSchedulers are the paper's two Table 2 columns.
var huntSchedulers = []string{"random", "pct"}

// huntCell is one (bug, scheduler) cell of the sweep.
type huntCell struct {
	row, scheduler string
}

// huntOutcome is what one cell did; the second group of fields is set for
// a cell that found its bug.
type huntOutcome struct {
	huntCell
	execs int
	found bool

	decisions, bytes           int
	encode, decode, replayWall time.Duration
}

// huntResult is the outcome of one sweep.
type huntResult struct {
	segStats
	cells []huntOutcome
}

// huntCells lists the sweep's cells in the order --seed selects.
//
// The scheduler seed is fixed (huntSeed); --seed only permutes the order the
// cells run in. Executions-to-bug of one
// scheduler seed is heavy-tailed — DeleteNoLeaveTombstonesEtag under random
// needs 133 executions at seed 1 and misses the 2000 budget at seed 5 — so
// a sweep whose scheduler seeds followed --seed would differ by ±20 % in
// total work from one seed to the next, far more than any change the
// benchmark has to resolve. A fixed sweep repeats exactly.
func huntCells(b *bench) []huntCell {
	var cells []huntCell
	for _, row := range huntRows {
		for _, s := range huntSchedulers {
			cells = append(cells, huntCell{row, s})
		}
	}
	rand.New(rand.NewSource(b.cfg.seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// huntSweep runs every cell: Explore until the seeded bug falls out or the
// budget is spent, then encode, decode and replay each found trace and
// check that the replay reproduces the same violation.
func huntSweep(b *bench, parent int, cells []huntCell, budget int) huntResult {
	var hr huntResult
	for _, c := range cells {
		t0 := time.Now()
		id := b.tr.start("gostorm.ScenarioByName", parent)
		sc, err := gostorm.ScenarioByName(c.row)
		b.tr.end(id)
		if err != nil {
			b.op()
			b.failf("%v", err)
			hr.parts = append(hr.parts, time.Since(t0))
			continue
		}
		opts := append(sc.Options(),
			gostorm.WithScheduler(c.scheduler), gostorm.WithWorkers(1),
			gostorm.WithSeed(huntSeed), gostorm.WithIterations(budget))
		res, _ := b.explore(parent, sc.Test(), opts...)
		hr.execs += int64(res.Executions)
		hr.steps += res.TotalSteps
		out := huntOutcome{huntCell: c, execs: res.Executions, found: res.BugFound}
		// A miss within budget costs executions; it is not a failure.
		if res.BugFound {
			confirm(b, parent, sc, res.Report, opts, &out)
		}
		hr.cells = append(hr.cells, out)
		hr.parts = append(hr.parts, time.Since(t0))
	}
	return hr
}

// confirm round-trips a found trace through the codec and replays it.
func confirm(b *bench, parent int, sc gostorm.Scenario, rep *gostorm.BugReport, opts []gostorm.Option, f *huntOutcome) {
	f.decisions = len(rep.Trace.Decisions)
	b.op()

	id := b.tr.start("core.Trace.Encode", parent)
	t0 := time.Now()
	data, err := rep.Trace.Encode()
	f.encode = time.Since(t0)
	b.tr.end(id)
	if err != nil {
		b.failf("%s: encoding the trace: %v", sc.Name, err)
		return
	}
	f.bytes = len(data)

	id = b.tr.start("gostorm.DecodeTrace", parent)
	t0 = time.Now()
	tr, err := gostorm.DecodeTrace(data)
	f.decode = time.Since(t0)
	b.tr.end(id)
	if err != nil {
		b.failf("%s: decoding the trace: %v", sc.Name, err)
		return
	}

	id = b.tr.start("gostorm.Replay", parent)
	t0 = time.Now()
	again, err := gostorm.Replay(sc.Test(), tr, opts...)
	f.replayWall = time.Since(t0)
	b.tr.end(id)
	switch {
	case err != nil:
		b.failf("%s: replay: %v", sc.Name, err)
	case again == nil:
		b.failf("%s: replay completed without the violation %q", sc.Name, rep.Message)
	case again.Kind != rep.Kind || headline(again.Message) != headline(rep.Message):
		b.failf("%s: replay reproduced %v %q, want %v %q", sc.Name, again.Kind, headline(again.Message), rep.Kind, headline(rep.Message))
	}
}

// headline is the first line of a violation message. A panic in the system
// under test reports its goroutine's stack after it, and goroutine numbers
// and addresses differ between the finding execution and its replay.
func headline(msg string) string {
	first, _, _ := strings.Cut(msg, "\n")
	return first
}

// huntRunner is the Table 2 workload: one sweep is one segment.
func huntRunner(b *bench) (runner, error) {
	for _, row := range huntRows {
		if _, err := gostorm.ScenarioByName(row); err != nil {
			return runner{}, err
		}
	}
	cells := huntCells(b)
	budget := b.size(huntBudget, huntSmokeBudget)
	return runner{segment: func(parent int) segStats {
		hr := huntSweep(b, parent, cells, budget)
		b.lastHunt = &hr
		return hr.segStats
	}}, nil
}

// fleetScenario is the clean scenario the fleet explores, fleetIterations
// the budget of its plan: 20 leases of the default 256 positions.
const (
	fleetScenario   = "mtable"
	fleetIterations = 5000
)

// fleetPlan is the exploration plan of a fleet run: the scenario's own
// options, random scheduler, the given budget.
func fleetPlan(b *bench, iterations int) (core.Options, error) {
	e, err := catalog.Get(fleetScenario)
	if err != nil {
		return core.Options{}, err
	}
	o := e.Options
	o.Scheduler = "random"
	o.Seed = b.cfg.seed
	o.Iterations = iterations
	return o, nil
}

// fleetStats is what the counting handler saw of one fleet run.
type fleetStats struct {
	leases, leaseBytes int64
	firstLease         time.Duration // agents started → first lease granted
}

// countingHandler wraps the coordinator's handler for a traced fleet run:
// a span per request, and request/response bytes of the lease exchange.
type countingHandler struct {
	next    http.Handler
	tr      *tracer
	parent  int
	started time.Time

	leases, leaseBytes atomic.Int64
	firstLease         atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.start("dist.Handler "+r.URL.Path, h.parent)
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.tr.end(id)
	if r.URL.Path == "/v1/lease" {
		h.firstLease.CompareAndSwap(0, int64(time.Since(h.started)))
		h.leases.Add(1)
		h.leaseBytes.Add(r.ContentLength + cw.n)
	}
}

// fleetRun is one whole fleet run in this process: a coordinator behind a
// loopback HTTP server and two single-worker agents, from join until the
// coordinator's Done() closes. In a traced run the handler is wrapped to
// record spans and lease traffic.
func fleetRun(b *bench, parent int, plan core.Options) (dist.Result, time.Duration, fleetStats) {
	b.op()
	id := b.tr.start("dist.New", parent)
	co, err := dist.New(dist.Config{Scenario: fleetScenario, Options: plan})
	b.tr.end(id)
	if err != nil {
		b.failf("dist.New: %v", err)
		return dist.Result{}, 0, fleetStats{}
	}
	h := co.Handler()
	var ch *countingHandler
	if b.tr != nil {
		ch = &countingHandler{next: h, tr: b.tr, parent: parent}
		h = ch
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	agents := make([]*dist.Agent, 2)
	for i := range agents {
		agents[i], err = dist.NewAgent(dist.AgentConfig{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("agent%d", i),
			Workers:     1,
			BuildTest: func(scenario string) (core.Test, error) {
				e, err := catalog.Get(scenario)
				if err != nil {
					return core.Test{}, err
				}
				return e.Build(), nil
			},
		})
		if err != nil {
			b.failf("dist.NewAgent: %v", err)
			return dist.Result{}, 0, fleetStats{}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, len(agents))
	t0 := time.Now()
	if ch != nil {
		ch.started = t0
	}
	for i, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := b.tr.start("dist.Agent.Run", parent)
			errs[i] = a.Run(ctx)
			b.tr.end(id)
		}()
	}
	agentsGone := make(chan struct{})
	go func() { wg.Wait(); close(agentsGone) }()
	select {
	case <-co.Done():
	case <-agentsGone:
		b.failf("every agent exited before the plan resolved")
	}
	wall := time.Since(t0)
	// An agent waiting out a "no lease pending" back-off has nothing left
	// to do; cancelling wakes it instead of adding its sleep to the run.
	cancel()
	<-agentsGone
	for i, err := range errs {
		if err != nil && err != context.Canceled {
			b.failf("agent%d: %v", i, err)
		}
	}
	res := co.Result()
	if res.Mismatches != 0 {
		b.failf("fleet reported %d determinism mismatches: %s", res.Mismatches, res.FirstMismatch)
	}
	if res.BugFound {
		b.failf("clean scenario %s reported a bug in the fleet: %s", fleetScenario, res.Message)
	}
	var fs fleetStats
	if ch != nil {
		fs = fleetStats{leases: ch.leases.Load(), leaseBytes: ch.leaseBytes.Load(), firstLease: time.Duration(ch.firstLease.Load())}
	}
	return res, wall, fs
}

// fleetReference explores the fleet's plan in this process with two
// workers; a fleet run must report exactly its statistics.
func fleetReference(b *bench, parent int, plan core.Options) (gostorm.Result, time.Duration) {
	sc, err := gostorm.ScenarioByName(fleetScenario)
	if err != nil {
		b.op()
		b.failf("%v", err)
		return gostorm.Result{}, 0
	}
	return b.exploreClean(parent, sc.Test(), append(sc.Options(),
		gostorm.WithScheduler(plan.Scheduler), gostorm.WithSeed(plan.Seed),
		gostorm.WithIterations(plan.Iterations), gostorm.WithWorkers(runtime.GOMAXPROCS(0)))...)
}

// checkFleetStats fails an operation when the fleet and in-process Explore
// disagree on the plan's statistics.
func checkFleetStats(b *bench, fleetExecs, fleetSteps int64, ref gostorm.Result) {
	b.op()
	if fleetExecs != int64(ref.Executions) || fleetSteps != ref.TotalSteps {
		b.failf("fleet statistics %d executions / %d steps differ from in-process Explore %d / %d",
			fleetExecs, fleetSteps, ref.Executions, ref.TotalSteps)
	}
}

// fleetRunner is the distributed workload: a segment is a whole fleet run.
func fleetRunner(b *bench) (runner, error) {
	plan, err := fleetPlan(b, b.size(fleetIterations, 300))
	if err != nil {
		return runner{}, err
	}
	return runner{
		segment: func(parent int) segStats {
			res, wall, _ := fleetRun(b, parent, plan)
			return segStats{execs: res.Executions, steps: res.TotalSteps, parts: []time.Duration{wall}}
		},
		verify: func(s segStats) {
			ref, _ := fleetReference(b, -1, plan)
			checkFleetStats(b, s.execs, s.steps, ref)
		},
	}, nil
}
