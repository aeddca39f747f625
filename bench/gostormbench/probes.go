package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/dist"
)

// The layer probes are small fixed measurements of one layer each, run by
// a traced run after the workload's segments. They are the same on every
// workload, and run at GOMAXPROCS=1 unless the probe itself compares
// processor counts.

// probe measures one layer under the tracing span parent.
type probe struct {
	name string
	fn   func(b *bench, rep *report, parent int)
}

var probes = []probe{
	{"probe.gostorm", probeAPI},
	{"probe.core.exec", probeExec},
	{"probe.core.crash", probeCrash},
	{"probe.core.sched", probeSchedulers},
	{"probe.core.hunt", probeHunt},
	{"probe.core.corpus", probeCorpus},
	{"probe.core.loops", probeLoops},
	{"probe.core.portfolio", probePortfolio},
	{"probe.dist.handlers", probeHandlers},
	{"probe.dist.fleet", probeFleet},
	{"probe.harnesses", probeHarnesses},
}

func runProbes(b *bench, rep *report) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, p := range probes {
		id := b.tr.start(p.name, -1)
		p.fn(b, rep, id)
		b.tr.end(id)
	}
}

// withProcs runs fn at GOMAXPROCS n (capped at the CPU count).
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(n, runtime.NumCPU())))
	fn()
}

// timeEach calls fn n times and returns each call's duration in units of
// unit.
func timeEach(n int, unit time.Duration, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0)) / float64(unit)
	}
	return out
}

// scenario looks a scenario up; an unknown name is a failed operation.
func (b *bench) scenario(name string) (gostorm.Scenario, bool) {
	sc, err := gostorm.ScenarioByName(name)
	if err != nil {
		b.op()
		b.failf("%v", err)
	}
	return sc, err == nil
}

// cleanRun explores a clean scenario reps times — its own options, random
// scheduler, one worker, the run's seed, then extra — and returns the last
// result and the fastest wall time in seconds.
func (b *bench) cleanRun(parent int, name string, reps int, extra ...gostorm.Option) (gostorm.Result, float64) {
	sc, ok := b.scenario(name)
	if !ok {
		return gostorm.Result{}, 0
	}
	opts := append(append(sc.Options(),
		gostorm.WithScheduler("random"), gostorm.WithWorkers(1), gostorm.WithSeed(b.cfg.seed)), extra...)
	var (
		res  gostorm.Result
		best time.Duration
	)
	for i := 0; i < reps; i++ {
		var wall time.Duration
		res, wall = b.exploreClean(parent, sc.Test(), opts...)
		if i == 0 || wall < best {
			best = wall
		}
	}
	return res, best.Seconds()
}

// perStep is nanoseconds per scheduling step.
func perStep(seconds float64, res gostorm.Result) float64 {
	return seconds * 1e9 / float64(max(res.TotalSteps, 1))
}

// perExec is nanoseconds per execution.
func perExec(seconds float64, res gostorm.Result) float64 {
	return seconds * 1e9 / float64(max(res.Executions, 1))
}

// probeAPI measures the root package: option resolution, scenario
// construction, the catalog lookup under both, and the fixed cost of a
// fresh Explore call.
func probeAPI(b *bench, rep *report, parent int) {
	n := b.size(100, 5)
	if sc, ok := b.scenario("replsys-fixed"); ok {
		test, opts := sc.Test(), sc.Options()
		rep.setMedian("gostorm.resolve_us", timeEach(n, time.Microsecond, func() {
			if _, err := gostorm.Resolve(test, opts...); err != nil {
				b.failf("Resolve: %v", err)
			}
		}))
	}
	rep.setMedian("gostorm.scenario_build_us", timeEach(n, time.Microsecond, func() {
		if sc, err := gostorm.ScenarioByName("mtable"); err != nil {
			b.failf("%v", err)
		} else {
			sc.Test()
		}
	}))
	rep.setMedian("catalog.get_us", timeEach(n, time.Microsecond, func() {
		if _, err := catalog.Get("wal-fixed"); err != nil {
			b.failf("%v", err)
		}
	}))
	for _, c := range []struct{ metric, scenario string }{
		{"gostorm.cold_explore_ms.replsys", "replsys-fixed"},
		{"gostorm.cold_explore_ms.mtable", "mtable"},
		{"gostorm.cold_explore_ms.wal", "wal-fixed"},
	} {
		walls := make([]float64, n)
		for i := range walls {
			_, s := b.cleanRun(parent, c.scenario, 1, gostorm.WithIterations(1))
			walls[i] = s * 1e3
		}
		rep.setMedian(c.metric, walls)
	}
}

type pingEv struct{ from gostorm.MachineID }

func (pingEv) Name() string { return "ping" }

// pingPongTest is two machines exchanging one message until the step
// bound: nothing but the engine's step and handoff path runs.
func pingPongTest() gostorm.Test {
	pong := gostorm.Event(gostorm.Signal("pong"))
	return gostorm.Test{
		Name: "bench-pingpong",
		Entry: func(ctx *gostorm.Context) {
			ponger := ctx.CreateMachine(&gostorm.FuncMachine{
				OnEvent: func(ctx *gostorm.Context, ev gostorm.Event) { ctx.Send(ev.(pingEv).from, pong) },
			}, "ponger")
			var ping gostorm.Event
			ctx.CreateMachine(&gostorm.FuncMachine{
				OnInit: func(ctx *gostorm.Context) {
					ping = pingEv{from: ctx.ID()}
					ctx.Send(ponger, ping)
				},
				OnEvent: func(ctx *gostorm.Context, ev gostorm.Event) { ctx.Send(ponger, ping) },
			}, "pinger")
		},
	}
}

// haltTest is one machine that halts in its first step: an execution that
// is all spawn, reset and verdict.
func haltTest() gostorm.Test {
	m := &gostorm.FuncMachine{OnInit: func(ctx *gostorm.Context) { ctx.Halt() }}
	return gostorm.Test{
		Name:  "bench-halt",
		Entry: func(ctx *gostorm.Context) { ctx.CreateMachine(m, "halter") },
	}
}

// probeExec measures the engine with no harness: the step floor, and the
// per-execution cost with and without pooled reuse.
func probeExec(b *bench, rep *report, parent int) {
	const reps = 3
	floor := make([]float64, reps)
	for i := range floor {
		res, wall := b.exploreClean(parent, pingPongTest(),
			gostorm.WithScheduler("rr"), gostorm.WithWorkers(1), gostorm.WithSeed(1),
			gostorm.WithIterations(b.size(30, 2)), gostorm.WithMaxSteps(10000), gostorm.WithNoLivenessBoundCheck())
		floor[i] = perStep(wall.Seconds(), res)
	}
	rep.setMedian("core.step_floor_ns", floor)

	pooled, fresh := make([]float64, reps), make([]float64, reps)
	opts := []gostorm.Option{
		gostorm.WithScheduler("random"), gostorm.WithWorkers(1), gostorm.WithSeed(b.cfg.seed),
		gostorm.WithIterations(b.size(5000, 200)),
	}
	for i := range pooled {
		res, wall := b.exploreClean(parent, haltTest(), opts...)
		pooled[i] = perExec(wall.Seconds(), res) / 1e3
		res, wall = b.exploreClean(parent, haltTest(), append(opts, gostorm.WithNoReuse())...)
		fresh[i] = perExec(wall.Seconds(), res) / 1e3
	}
	rep.setMedian("core.exec_overhead_us", pooled)
	rep.setMedian("core.exec_overhead_noreuse_us", fresh)
	rep.set("core.pool.reuse_speedup", medianOf(fresh)/medianOf(pooled))
}

// probeCrash prices the crash plane on wal-fixed: the default fault budget
// (Persist/Sync scheduling points, crash and torn-prefix choices) against
// the same scenario with faults off. The faults-on run is also the wal
// harness's step cost, and the base of the handoff penalty at two Ps.
func probeCrash(b *bench, rep *report, parent int) {
	iters := gostorm.WithIterations(b.size(5000, 200))
	res, on := b.cleanRun(parent, "wal-fixed", 3, iters)
	rep.set("core.crash.ns_per_exec", perExec(on, res))
	rep.set("wal.ns_per_step", perStep(on, res))
	res, off := b.cleanRun(parent, "wal-fixed", 3, iters, gostorm.WithNoFaults())
	rep.set("core.crash.off_ns_per_exec", perExec(off, res))
	withProcs(2, func() {
		_, p2 := b.cleanRun(parent, "wal-fixed", 3, iters)
		rep.set("core.handoff.p2_penalty.wal", p2/on)
	})
}

// probeSchedulers is the step cost of each scheduler on clean mtable; the
// random cell is also the mtable harness's step cost.
func probeSchedulers(b *bench, rep *report, parent int) {
	for _, s := range []string{"random", "pct", "delay", "rr", "mutational"} {
		res, wall := b.cleanRun(parent, "mtable", 2, gostorm.WithScheduler(s), gostorm.WithIterations(b.size(300, 10)))
		rep.set("core.sched."+s+".ns_per_step", perStep(wall, res))
		if s == "random" {
			rep.set("mtable.ns_per_step", perStep(wall, res))
		}
	}
}

// probeHunt reports the Table 2 sweep per scheduler column, and the trace
// codec and replay over its found traces. On hunt-table2 the sweep is the
// workload's last segment; elsewhere the probe runs one.
func probeHunt(b *bench, rep *report, parent int) {
	if b.lastHunt == nil {
		hr := huntSweep(b, parent, huntCells(b), b.size(huntBudget, huntSmokeBudget))
		b.lastHunt = &hr
	}
	var (
		execs, found    = map[string]int{}, map[string]int{}
		decisions, size int
		encode, decode  time.Duration
		replays         []float64
	)
	for _, c := range b.lastHunt.cells {
		execs[c.scheduler] += c.execs
		if !c.found {
			continue
		}
		found[c.scheduler]++
		decisions += c.decisions
		size += c.bytes
		encode += c.encode
		decode += c.decode
		replays = append(replays, c.replayWall.Seconds()*1e3)
	}
	for _, s := range huntSchedulers {
		rep.set("core.hunt.execs_to_bug."+s, float64(execs[s]))
		rep.set("core.hunt.found."+s, float64(found[s]))
	}
	if len(replays) == 0 {
		b.failf("the Table 2 sweep found no bug at all")
		return
	}
	kdec := float64(max(decisions, 1)) / 1000
	rep.set("core.trace.encode_us_per_kdec", float64(encode.Microseconds())/kdec)
	rep.set("core.trace.decode_us_per_kdec", float64(decode.Microseconds())/kdec)
	rep.set("core.trace.bytes_per_decision", float64(size)/float64(max(decisions, 1)))
	rep.setMedian("core.replay.ms", replays)
}

// probeCorpus encodes and decodes the corpus a 300-iteration mutational
// run on mtable builds — what a feedback fleet ships with every lease.
func probeCorpus(b *bench, rep *report, parent int) {
	sc, ok := b.scenario("mtable")
	if !ok {
		return
	}
	n := b.size(300, 64)
	b.op()
	id := b.tr.start("gostorm.ExploreShard", parent)
	sr, err := gostorm.ExploreShard(sc.Test(), gostorm.Shard{From: 0, To: int64(n)}, append(sc.Options(),
		gostorm.WithScheduler("mutational"), gostorm.WithWorkers(1), gostorm.WithSeed(b.cfg.seed), gostorm.WithIterations(n))...)
	b.tr.end(id)
	if err != nil {
		b.failf("ExploreShard(mutational): %v", err)
		return
	}
	corpus := core.NewCorpus(0)
	for _, c := range sr.Candidates {
		corpus.Add(c.Fingerprint, int(c.Position), c.Decisions)
	}
	if corpus.Len() == 0 {
		b.failf("the mutational run recorded no corpus entry")
		return
	}
	var data []byte
	reps := b.size(10, 2)
	rep.setMedian("core.corpus.encode_us", timeEach(reps, time.Microsecond, func() {
		if data, err = corpus.Encode(); err != nil {
			b.failf("Corpus.Encode: %v", err)
		}
	}))
	rep.setMedian("core.corpus.decode_us", timeEach(reps, time.Microsecond, func() {
		if c, err := gostorm.DecodeCorpus(data); err != nil {
			b.failf("DecodeCorpus: %v", err)
		} else if c.Len() != corpus.Len() {
			b.failf("DecodeCorpus returned %d entries, encoded %d", c.Len(), corpus.Len())
		}
	}))
	rep.set("core.corpus.bytes", float64(len(data)))
}

// probeLoops compares the exploration loops on the same options: the shard
// loop over the whole plan against Explore, two workers on two Ps against
// one on one, and one worker on all Ps against one on one (the cost of the
// handoff chain migrating between Ps). The replsys run at one P is also
// the replsys harness's step cost.
func probeLoops(b *bench, rep *report, parent int) {
	iters := gostorm.WithIterations(b.size(500, 10))
	_, whole := b.cleanRun(parent, "mtable", 3, iters)
	if sc, ok := b.scenario("mtable"); ok {
		opts := append(sc.Options(), gostorm.WithScheduler("random"), gostorm.WithWorkers(1), gostorm.WithSeed(b.cfg.seed), iters)
		total, err := gostorm.PlanSize(opts...)
		if err != nil {
			b.failf("PlanSize: %v", err)
		}
		shard := timeEach(3, time.Second, func() {
			b.op()
			id := b.tr.start("gostorm.ExploreShard", parent)
			sr, err := gostorm.ExploreShard(sc.Test(), gostorm.Shard{From: 0, To: total}, opts...)
			b.tr.end(id)
			if err != nil || sr.BugFound || sr.ResolvedTo != total {
				b.failf("ExploreShard over the whole plan: err %v, bug %v, resolved %d of %d", err, sr.BugFound, sr.ResolvedTo, total)
			}
		})
		rep.set("core.shard.overhead_ratio", medianOf(shard)/whole)
	}

	for _, c := range []struct {
		name, scenario string
		iterations     int
	}{
		{"replsys", "replsys-fixed", b.size(100, 5)},
		{"mtable", "mtable", b.size(1000, 10)},
	} {
		iters := gostorm.WithIterations(c.iterations)
		res, w1 := b.cleanRun(parent, c.scenario, 1, iters)
		withProcs(2, func() {
			_, w2 := b.cleanRun(parent, c.scenario, 1, iters, gostorm.WithWorkers(2))
			rep.set("core.scale.w2_speedup."+c.name, w1/w2)
			if c.name == "replsys" {
				_, p2 := b.cleanRun(parent, c.scenario, 1, iters)
				rep.set("core.handoff.p2_penalty.replsys", p2/w1)
			}
		})
		if c.name == "replsys" {
			rep.set("replsys.ns_per_step", perStep(w1, res))
		}
	}
}

// probePortfolio prices racing a portfolio: the wall time per canonical
// execution of random,pct,delay on QueryStreamedLock-custom, over the wall
// time per execution of the three schedulers run one after the other with
// the budgets the race attributed to them. Loser members are not stopped
// promptly, so at one P the race costs tens to hundreds of times the work
// it reports. No workload races a portfolio, so no end-to-end metric moves
// with this one yet.
func probePortfolio(b *bench, rep *report, parent int) {
	sc, ok := b.scenario("QueryStreamedLock-custom")
	if !ok {
		return
	}
	members := []string{"random", "pct", "delay"}
	base := append(sc.Options(), gostorm.WithSeed(1), gostorm.WithIterations(b.size(2000, 10)))
	for _, p := range []int{1, 2} {
		withProcs(p, func() {
			race, raceWall := b.explore(parent, sc.Test(), append(base, gostorm.WithPortfolio(members...), gostorm.WithWorkers(p))...)
			if len(race.Portfolio) != len(members) {
				return
			}
			var alone time.Duration
			execs := 0
			for m, name := range members {
				if race.Portfolio[m].Executions == 0 {
					continue
				}
				res, wall := b.explore(parent, sc.Test(), append(base,
					gostorm.WithScheduler(name), gostorm.WithWorkers(1), gostorm.WithIterations(race.Portfolio[m].Executions))...)
				alone += wall
				execs += res.Executions
			}
			if execs == 0 || race.Executions == 0 {
				b.failf("portfolio race on %s reported no executions", sc.Name)
				return
			}
			perRace := raceWall.Seconds() / float64(race.Executions)
			perAlone := alone.Seconds() / float64(execs)
			rep.set(fmt.Sprintf("core.portfolio.overhead_ratio.p%d", p), perRace/perAlone)
		})
	}
}

// send delivers one POST body to a coordinator and returns the status, the
// response body and how long the exchange took.
type send func(path string, body []byte) (status int, resp []byte, took time.Duration, err error)

// viaRecorder calls the handler directly: no socket, only ServeHTTP is timed.
func viaRecorder(h http.Handler) send {
	return func(path string, body []byte) (int, []byte, time.Duration, error) {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		return w.Code, w.Body.Bytes(), time.Since(t0), nil
	}
}

// viaLoopback posts to the server over its loopback socket.
func viaLoopback(srv *httptest.Server) send {
	return func(path string, body []byte) (int, []byte, time.Duration, error) {
		t0 := time.Now()
		r, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, 0, err
		}
		defer r.Body.Close()
		data, err := io.ReadAll(r.Body)
		return r.StatusCode, data, time.Since(t0), err
	}
}

// probeHandlers times the coordinator's handlers with no socket (request →
// ServeHTTP on a recorder), and the lease exchange over loopback. Each
// round leases and reports a whole 20 000-position plan.
func probeHandlers(b *bench, rep *report, parent int) {
	plan, err := fleetPlan(b, 20000)
	if err != nil {
		b.failf("%v", err)
		return
	}
	// exchange is one JSON request and response, in microseconds.
	exchange := func(do send, path string, req, resp any) float64 {
		body, err := json.Marshal(req)
		if err != nil {
			b.failf("%s: %v", path, err)
			return 0
		}
		status, data, took, err := do(path, body)
		switch {
		case err != nil:
			b.failf("%s: %v", path, err)
		case status != http.StatusOK:
			b.failf("%s: status %d: %s", path, status, data)
		default:
			if err := json.Unmarshal(data, resp); err != nil {
				b.failf("%s: %v", path, err)
			}
		}
		return float64(took) / float64(time.Microsecond)
	}
	// drain joins, then leases and reports every position of a fresh plan.
	drain := func(do send) (lease, report []float64) {
		var jr dist.JoinResponse
		exchange(do, "/v1/join", dist.JoinRequest{Protocol: dist.ProtocolVersion, Agent: "probe"}, &jr)
		for {
			var lr dist.LeaseResponse
			lease = append(lease, exchange(do, "/v1/lease", dist.LeaseRequest{Agent: "probe"}, &lr))
			if lr.Done || lr.None || lr.To == 0 {
				return lease, report
			}
			var rr dist.ReportResponse
			report = append(report, exchange(do, "/v1/report", dist.ReportRequest{
				Agent: "probe", Lease: lr.Lease, From: lr.From, To: lr.To, ResolvedTo: lr.To,
				Executions: int(lr.To - lr.From), TotalSteps: 370 * (lr.To - lr.From),
			}, &rr))
		}
	}

	var lease, report, status, rtt []float64
	for round := 0; round < b.size(10, 1); round++ {
		co, err := dist.New(dist.Config{Scenario: fleetScenario, Options: plan})
		if err != nil {
			b.failf("dist.New: %v", err)
			return
		}
		h := co.Handler()
		l, r := drain(viaRecorder(h))
		lease, report = append(lease, l...), append(report, r...)
		status = append(status, timeEach(20, time.Microsecond, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
			if w.Code != http.StatusOK {
				b.failf("/v1/status: status %d", w.Code)
			}
		})...)
		if round < b.size(3, 1) {
			// The same plan again, through a loopback socket.
			co, err := dist.New(dist.Config{Scenario: fleetScenario, Options: plan})
			if err != nil {
				b.failf("dist.New: %v", err)
				return
			}
			srv := httptest.NewServer(co.Handler())
			l, _ := drain(viaLoopback(srv))
			srv.Close()
			rtt = append(rtt, l...)
		}
	}
	rep.setMedian("dist.handler_lease_us", lease)
	rep.setMedian("dist.handler_report_us", report)
	rep.setMedian("dist.handler_status_us", status)
	rep.setMedian("dist.lease_rtt_us", rtt)
}

// probeFleet runs one counted fleet run and the same plan in this process
// with two workers, at two Ps.
func probeFleet(b *bench, rep *report, parent int) {
	plan, err := fleetPlan(b, b.size(fleetIterations, 300))
	if err != nil {
		b.failf("%v", err)
		return
	}
	withProcs(2, func() {
		res, wall, fs := fleetRun(b, parent, plan)
		ref, refWall := fleetReference(b, parent, plan)
		checkFleetStats(b, res.Executions, res.TotalSteps, ref)
		if fs.leases == 0 || wall == 0 || refWall == 0 {
			return
		}
		rep.set("dist.leases_per_run", float64(fs.leases))
		rep.set("dist.bytes_per_lease", float64(fs.leaseBytes)/float64(fs.leases))
		rep.set("dist.join_to_first_lease_ms", fs.firstLease.Seconds()*1e3)
		fleetRate := float64(res.Executions) / wall.Seconds()
		refRate := float64(ref.Executions) / refWall.Seconds()
		rep.set("dist.fleet_efficiency", fleetRate/refRate)
	})
}

// probeHarnesses is the step cost of the harnesses no other probe covers.
func probeHarnesses(b *bench, rep *report, parent int) {
	res, wall := b.cleanRun(parent, "vnext-repair", 1, gostorm.WithIterations(b.size(100, 5)))
	rep.set("vnext.ns_per_step", perStep(wall, res))
	res, wall = b.cleanRun(parent, "fabric-failover", 1, gostorm.WithIterations(b.size(300, 5)))
	rep.set("fabric.ns_per_step", perStep(wall, res))
}
