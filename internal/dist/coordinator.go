package dist

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http"
	"sync"
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// retryMs is the backoff, in milliseconds, agents are told when no lease is
// pending.
const retryMs = 200

// The lease settings a zero Config field stands for.
const (
	DefaultLeaseSize = 256
	DefaultLeaseTTL  = 10 * time.Second
)

// Config configures a Coordinator.
type Config struct {
	// Scenario is the catalog name agents build the test from. The
	// coordinator never runs the test itself — it only owns the plan.
	Scenario string
	// Options is the exploration plan (seed, budget, scheduler/portfolio,
	// bounds). Resolved (core.Options.Resolve) by New.
	Options core.Options
	// LeaseSize is the number of global positions per lease
	// (0 = DefaultLeaseSize; negative is an error).
	LeaseSize int64
	// LeaseTTL is how long an agent may sit on a lease before it is
	// re-issued to someone else (0 = DefaultLeaseTTL; negative is an
	// error).
	LeaseTTL time.Duration
	// Log, when non-nil, receives one line per control-plane event.
	Log func(format string, args ...any)
}

// Result is the fleet-wide outcome, available once Done() closes.
type Result struct {
	BugFound bool
	// BugPos is the winning global position; Member and Iteration the
	// deterministic attribution; TraceBytes the winning trace's exact wire
	// bytes.
	BugPos     int64
	Member     int
	Iteration  int
	Message    string
	TraceBytes []byte
	// Executions / TotalSteps aggregate the work the fleet reported.
	Executions int64
	TotalSteps int64
	Elapsed    time.Duration
	// Mismatches counts determinism-contract violations (two reports for
	// one position with different trace bytes); FirstMismatch describes
	// the first. Always zero for a deterministic system under test.
	Mismatches    int
	FirstMismatch string
}

// Coordinator owns one exploration plan: a state machine whose transitions
// — join, lease, report, status — take the time and a request and answer
// with a response or an error. Handler puts them behind the protocol's
// endpoints, next to /healthz ("ok") and /metrics (Prometheus-style text).
type Coordinator struct {
	cfg   Config
	plan  PlanConfig
	start time.Time

	mu sync.Mutex
	// lt.limit doubles as the stop bound pushed to agents: the winning
	// bug's position, plan.Total while there is none.
	lt         *leaseTable
	bug        *WireBug
	executions int64
	steps      int64
	agents     map[string]time.Time
	mismatches int
	mismatch   string
	done       bool
	doneCh     chan struct{}
}

// New validates the plan and builds a coordinator. The plan is only ever
// explored a lease at a time, so it must be one whose every sub-range can
// be (core.CheckSubRange): no member may be feedback-driven (mutational).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Scenario == "" {
		return nil, fmt.Errorf("dist: Config.Scenario is required")
	}
	if cfg.LeaseSize < 0 {
		return nil, &core.ConfigError{Field: "Config.LeaseSize", Reason: fmt.Sprintf("must be non-negative, got %d", cfg.LeaseSize)}
	}
	if cfg.LeaseTTL < 0 {
		return nil, &core.ConfigError{Field: "Config.LeaseTTL", Reason: fmt.Sprintf("must be non-negative, got %v", cfg.LeaseTTL)}
	}
	o, err := cfg.Options.Resolve(core.Test{})
	if err != nil {
		return nil, err
	}
	if err := core.CheckSubRange(o); err != nil {
		return nil, err
	}
	if cfg.LeaseSize == 0 {
		cfg.LeaseSize = DefaultLeaseSize
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	total := core.PlanSize(o)
	return &Coordinator{
		cfg:    cfg,
		plan:   PlanConfig{Scenario: cfg.Scenario, Options: o, Total: total},
		start:  time.Now(),
		lt:     newLeaseTable(total, cfg.LeaseSize, cfg.LeaseTTL),
		agents: make(map[string]time.Time),
		doneCh: make(chan struct{}),
	}, nil
}

// Plan returns the wire plan the coordinator publishes.
func (co *Coordinator) Plan() PlanConfig { return co.plan }

// Done closes when every position below the winning bug (or the whole
// plan) has resolved.
func (co *Coordinator) Done() <-chan struct{} { return co.doneCh }

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Log != nil {
		co.cfg.Log(format, args...)
	}
}

// Result assembles the fleet outcome. Meaningful once Done() has closed,
// but safe to call any time.
func (co *Coordinator) Result() Result {
	co.mu.Lock()
	defer co.mu.Unlock()
	res := Result{
		Executions:    co.executions,
		TotalSteps:    co.steps,
		Elapsed:       time.Since(co.start),
		Mismatches:    co.mismatches,
		FirstMismatch: co.mismatch,
	}
	if co.bug != nil {
		res.BugFound = true
		res.BugPos = co.bug.Pos
		res.Member = co.bug.Member
		res.Iteration = co.bug.Iteration
		res.Message = co.bug.Message
		res.TraceBytes = co.bug.Trace
	}
	return res
}

// Handler returns the control-plane HTTP handler: the transitions behind
// their endpoints, on the wall clock, plus the operational pages.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	joinEndpoint.serve(mux, time.Now, co.join)
	leaseEndpoint.serve(mux, time.Now, co.lease)
	reportEndpoint.serve(mux, time.Now, co.report)
	statusEndpoint.serve(mux, time.Now, co.status)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		st, _ := co.status(time.Now(), struct{}{})
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, st)
	})
	return mux
}

// lock takes the mutex for a transition agent asked for at now — the last
// the coordinator has seen of that agent, which status counts the live by.
func (co *Coordinator) lock(agent string, now time.Time) {
	co.mu.Lock()
	co.agents[agent] = now
}

// join admits an agent that speaks the coordinator's protocol version and
// hands it the plan.
func (co *Coordinator) join(now time.Time, req JoinRequest) (JoinResponse, error) {
	if req.Protocol != ProtocolVersion {
		return JoinResponse{}, fmt.Errorf("protocol version %d not supported (coordinator speaks %d)",
			req.Protocol, ProtocolVersion)
	}
	co.lock(req.Agent, now)
	co.mu.Unlock()
	co.logf("agent %s joined", req.Agent)
	return JoinResponse{Plan: co.plan}, nil
}

// lease re-queues what expired by now and grants the agent the lowest
// pending span, or tells it to come back, or that the run is done.
func (co *Coordinator) lease(now time.Time, req LeaseRequest) (LeaseResponse, error) {
	co.lock(req.Agent, now)
	defer co.mu.Unlock()
	if co.done {
		return LeaseResponse{Done: true}, nil
	}
	if n := co.lt.expire(now); n > 0 {
		co.logf("re-issued %d expired lease(s)", n)
	}
	l, ok := co.lt.grant(now)
	if !ok {
		return LeaseResponse{None: true, RetryMs: retryMs, Stop: co.lt.limit}, nil
	}
	return LeaseResponse{Lease: l.id, From: l.span.from, To: l.span.to, Stop: co.lt.limit}, nil
}

// validate rejects a report the plan cannot have produced. Reports arrive
// from the network, and an accepted one decides the verdict: a span beyond
// the plan would resolve work nobody ran, a bug off the plan would win it.
// The statistics count at most one execution per resolved position, none
// of which runs past twice the step bound. A bug is of a BugKind and lies
// inside the report's span [From, To), or below the member count: a
// calibration execution for an unowned member iteration 0 reports there.
func (co *Coordinator) validate(req *ReportRequest) error {
	if !(0 <= req.From && req.From <= req.ResolvedTo && req.ResolvedTo <= req.To && req.To <= co.plan.Total) {
		return fmt.Errorf("report [%d, %d) resolved to %d is not a prefix of a span of the plan [0, %d)",
			req.From, req.To, req.ResolvedTo, co.plan.Total)
	}
	n, steps, m := int64(req.Executions), req.TotalSteps, int64(co.plan.MaxSteps)
	if n < 0 || n > req.ResolvedTo-req.From {
		return fmt.Errorf("report of %d executions on %d resolved positions", n, req.ResolvedTo-req.From)
	}
	// steps <= 2*m*n ⇔ ⌈steps/2⌉ <= m*n, the product taken in 128 bits.
	if hi, lo := bits.Mul64(uint64(m), uint64(n)); steps < 0 || hi == 0 && uint64(steps-steps/2) > lo {
		return fmt.Errorf("report of %d steps in %d executions of at most %d steps each", steps, n, 2*m)
	}
	b := req.Bug
	if b == nil {
		return nil
	}
	if b.Pos < 0 || b.Pos >= co.plan.Total {
		return fmt.Errorf("bug position %d is outside the plan [0, %d)", b.Pos, co.plan.Total)
	}
	if nm := int64(len(co.plan.Members())); int64(b.Member) != b.Pos%nm || int64(b.Iteration) != b.Pos/nm {
		return fmt.Errorf("bug at position %d of a %d-member plan attributed to member %d, iteration %d",
			b.Pos, nm, b.Member, b.Iteration)
	}
	if k := core.BugKind(b.Kind); k < core.SafetyBug || k > core.DeadlockBug {
		return fmt.Errorf("bug of unknown kind %d", b.Kind)
	}
	if _, err := core.DecodeTrace(b.Trace); err != nil {
		return fmt.Errorf("bug trace: %v", err)
	}
	if nm := int64(len(co.plan.Members())); (b.Pos < req.From || b.Pos >= req.To) && b.Pos >= nm {
		return fmt.Errorf("bug at position %d lies outside the report's span [%d, %d) and past the %d calibration positions",
			b.Pos, req.From, req.To, nm)
	}
	return nil
}

// report ingests a lease's results: the resolved prefix, the statistics,
// a bug — and closes the run when that settles it.
func (co *Coordinator) report(now time.Time, req ReportRequest) (ReportResponse, error) {
	if err := co.validate(&req); err != nil {
		return ReportResponse{}, fmt.Errorf("bad request: %v", err)
	}
	co.lock(req.Agent, now)
	defer co.mu.Unlock()

	// Duplicate reports (an expired lease re-issued, both agents finishing)
	// carry identical deterministic data; only the first contributes to the
	// statistics.
	if co.lt.report(req.Lease, req.From, req.ResolvedTo) {
		co.executions += int64(req.Executions)
		co.steps += req.TotalSteps
	}
	if req.Bug != nil {
		co.ingestBugLocked(req.Agent, req.Bug)
	}
	co.checkDoneLocked()
	return ReportResponse{Done: co.done, Stop: co.lt.limit}, nil
}

// ingestBugLocked applies first-bug-wins: the lowest position wins; two
// reports at one position must agree byte-for-byte or the system under
// test is nondeterministic.
func (co *Coordinator) ingestBugLocked(agent string, b *WireBug) {
	switch {
	case b.Pos < co.lt.limit:
		co.bug = b
		co.lt.prune(b.Pos)
		co.logf("agent %s reported bug at position %d (member %d, iteration %d): %s",
			agent, b.Pos, b.Member, b.Iteration, b.Message)
	case b.Pos == co.lt.limit && co.bug != nil:
		if !bytes.Equal(b.Trace, co.bug.Trace) {
			co.mismatches++
			if co.mismatch == "" {
				co.mismatch = fmt.Sprintf("position %d reported with two different traces (agent %s) — is the system under test deterministic?",
					b.Pos, agent)
			}
			co.logf("determinism violation: %s", co.mismatch)
		}
	}
}

// checkDoneLocked closes doneCh once the winner is confirmed: a bug wins
// only when every lower position has resolved; a clean run ends when the
// whole plan has.
func (co *Coordinator) checkDoneLocked() {
	if co.done {
		return
	}
	target := co.plan.Total
	if co.bug != nil {
		target = co.bug.Pos + 1
	}
	if !co.lt.resolved.covered(target) {
		return
	}
	co.done = true
	close(co.doneCh)
	if co.bug != nil {
		co.logf("done: bug confirmed at position %d after %d execution(s)", co.bug.Pos, co.executions)
	} else {
		co.logf("done: no bug in %d execution(s)", co.executions)
	}
}

// status is the coordinator's state at now: what /v1/status answers and
// /metrics renders.
func (co *Coordinator) status(now time.Time, _ struct{}) (StatusResponse, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	elapsed := now.Sub(co.start).Seconds()
	live := 0
	window := 3 * co.cfg.LeaseTTL
	for _, seen := range co.agents {
		if now.Sub(seen) <= window {
			live++
		}
	}
	st := StatusResponse{
		Done:        co.done,
		Total:       co.plan.Total,
		Resolved:    co.lt.resolved.total(),
		Frontier:    co.lt.resolved.frontier(),
		Stop:        co.lt.limit,
		BugFound:    co.bug != nil,
		Executions:  co.executions,
		TotalSteps:  co.steps,
		Leases:      co.lt.outstanding(),
		AgentsLive:  live,
		ElapsedSecs: elapsed,
	}
	if co.bug != nil {
		st.BugPos = co.bug.Pos
	}
	if elapsed > 0 {
		st.PerSecond = float64(co.executions) / elapsed
	}
	return st, nil
}
