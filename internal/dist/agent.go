package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// AgentConfig configures an exploration agent.
type AgentConfig struct {
	// Coordinator is the control-plane base URL (e.g. "http://host:7077").
	Coordinator string
	// Name identifies the agent in leases, logs and metrics.
	Name string
	// Workers is the agent's local exploration parallelism (0 = one per
	// CPU, the engine default).
	Workers int
	// Poll is the status-poll cadence while a lease is running; the poll
	// lowers the local stop bound as the fleet's best bug improves
	// (default 250ms).
	Poll time.Duration
	// BuildTest maps the plan's scenario name to a runnable test. The
	// binaries wire the catalog here; tests wire fixtures.
	BuildTest func(scenario string) (core.Test, error)
	// Log, when non-nil, receives one line per agent event.
	Log func(format string, args ...any)
}

// Agent pulls leases from a coordinator and runs them with
// core.ExploreShard. It is deliberately thin: all determinism lives in the
// engine, all fleet state in the coordinator.
type Agent struct {
	cfg   AgentConfig
	hc    *http.Client
	plan  PlanConfig
	test  core.Test
	opts  core.Options
	hints []int
}

// NewAgent validates the configuration.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dist: AgentConfig.Coordinator is required")
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("dist: AgentConfig.Name is required")
	}
	if cfg.BuildTest == nil {
		return nil, fmt.Errorf("dist: AgentConfig.BuildTest is required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	return &Agent{cfg: cfg, hc: &http.Client{Timeout: 30 * time.Second}}, nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Log != nil {
		a.cfg.Log(format, args...)
	}
}

// statusError is the coordinator answering with anything but 200.
type statusError struct {
	path, body string
	code       int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("dist: %s: %d %s: %s", e.path, e.code, http.StatusText(e.code), e.body)
}

// call is the agent's one HTTP exchange: req posted as JSON, or a GET when
// req is nil, and the 200 answer decoded into resp.
func (a *Agent) call(path string, req, resp any) error {
	var r *http.Response
	var err error
	if req == nil {
		r, err = a.hc.Get(a.cfg.Coordinator + path)
	} else {
		var body []byte
		if body, err = json.Marshal(req); err != nil {
			return err
		}
		r, err = a.hc.Post(a.cfg.Coordinator+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return &statusError{path: path, code: r.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return json.Unmarshal(data, resp)
}

// localOptions are the engine options an agent runs the plan's leases
// with: the plan, plus the machine-local fields the wire leaves out.
// workers is the agent's local parallelism; replay logs stay off — the
// coordinator replays the winner centrally if asked to.
func localOptions(plan PlanConfig, workers int) core.Options {
	o := plan.Options
	o.Workers = workers
	o.NoReplayLog = true
	return o
}

// sleep waits d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Run joins the coordinator and processes leases until the run completes
// or ctx is cancelled. Cancellation mid-lease aborts the exploration and
// returns WITHOUT reporting — indistinguishable from an agent death; the
// lease expires and the coordinator re-issues it, which is exactly the
// chaos the determinism contract is tested under.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.join(ctx); err != nil {
		return err
	}
	test, err := a.cfg.BuildTest(a.plan.Scenario)
	if err != nil {
		return fmt.Errorf("dist: building scenario %q: %w", a.plan.Scenario, err)
	}
	a.test = test
	a.opts = localOptions(a.plan, a.cfg.Workers)
	if total := core.PlanSize(a.opts); total != a.plan.Total {
		return fmt.Errorf("dist: plan size mismatch: coordinator says %d, local derivation %d", a.plan.Total, total)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := a.withRetry(ctx, func() error {
			return a.call("/v1/lease", LeaseRequest{Agent: a.cfg.Name}, &lr)
		}); err != nil {
			return err
		}
		switch {
		case lr.Done:
			a.logf("run complete")
			return nil
		case lr.None:
			if err := sleep(ctx, time.Duration(lr.RetryMs)*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		if err := a.runLease(ctx, lr); err != nil {
			return err
		}
	}
}

// join introduces the agent, retrying while the coordinator comes up.
func (a *Agent) join(ctx context.Context) error {
	return a.withRetry(ctx, func() error {
		var jr JoinResponse
		if err := a.call("/v1/join", JoinRequest{Protocol: ProtocolVersion, Agent: a.cfg.Name}, &jr); err != nil {
			return err
		}
		a.plan = jr.Plan
		a.logf("joined: scenario %q, plan of %d position(s)", a.plan.Scenario, a.plan.Total)
		return nil
	})
}

// withRetry runs fn with capped exponential backoff until it succeeds, the
// context dies, or the attempts run out. A request the coordinator rejects
// (400: wrong protocol version, a report off the plan) fails immediately —
// no retry will fix it.
func (a *Agent) withRetry(ctx context.Context, fn func() error) error {
	backoff := 100 * time.Millisecond
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err = fn(); err == nil {
			return nil
		}
		var rejected *statusError
		if errors.As(err, &rejected) && rejected.code == http.StatusBadRequest {
			return err
		}
		a.logf("transient control-plane error (attempt %d): %v", attempt+1, err)
		if serr := sleep(ctx, backoff); serr != nil {
			return serr
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	return err
}

// runLease explores one leased range. A background poller tracks the
// fleet's stop bound so a bug found elsewhere aborts local work at
// superseded positions mid-lease.
func (a *Agent) runLease(ctx context.Context, lr LeaseResponse) error {
	a.logf("lease %d: positions [%d, %d), stop %d", lr.Lease, lr.From, lr.To, lr.Stop)
	var stop atomic.Int64
	stop.Store(lr.Stop)
	if lr.Stop == 0 || lr.Stop > a.plan.Total {
		stop.Store(a.plan.Total)
	}

	pollCtx, cancelPoll := context.WithCancel(ctx)
	defer cancelPoll()
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			if sleep(pollCtx, a.cfg.Poll) != nil {
				// The agent is dying: slam the bound so in-flight
				// executions abort at the next scheduling point.
				if ctx.Err() != nil {
					stop.Store(lr.From)
				}
				return
			}
			var st StatusResponse
			if a.call("/v1/status", nil, &st) != nil {
				continue
			}
			if st.Stop < stop.Load() {
				stop.Store(st.Stop)
			}
		}
	}()

	sh := core.Shard{
		From: lr.From,
		To:   lr.To,
		Stop: stop.Load,
	}
	if len(lr.Corpus) > 0 {
		c, err := core.DecodeCorpus(lr.Corpus)
		if err != nil {
			return fmt.Errorf("dist: lease %d corpus: %w", lr.Lease, err)
		}
		sh.Corpus = c
	}
	if a.hints != nil {
		sh.LengthHints = a.hints
	}
	res, err := core.ExploreShard(a.test, a.opts, sh)
	cancelPoll()
	<-pollDone
	if err != nil {
		return err
	}
	// Cache adaptive length hints across leases of the same plan.
	if a.hints == nil {
		a.hints = res.LengthHints
	} else {
		for m, h := range res.LengthHints {
			if h > 0 {
				a.hints[m] = h
			}
		}
	}
	if ctx.Err() != nil {
		// Killed mid-lease: die silently, the lease will expire.
		return ctx.Err()
	}

	report := ReportRequest{
		Agent:      a.cfg.Name,
		Lease:      lr.Lease,
		From:       res.From,
		To:         res.To,
		ResolvedTo: res.ResolvedTo,
		Executions: res.Executions,
		TotalSteps: res.TotalSteps,
	}
	if res.BugFound {
		data, err := res.Report.Trace.Encode()
		if err != nil {
			return fmt.Errorf("dist: encoding winning trace: %w", err)
		}
		report.Bug = &WireBug{
			Pos:       res.BugPos,
			Member:    res.Member,
			Iteration: res.Report.Iteration,
			Kind:      int(res.Report.Kind),
			Message:   res.Report.Message,
			Machine:   res.Report.Machine,
			Step:      res.Report.Step,
			Trace:     data,
		}
		a.logf("lease %d: bug at position %d (member %d, iteration %d)",
			lr.Lease, res.BugPos, res.Member, res.Report.Iteration)
	}
	for _, c := range res.Candidates {
		report.Candidates = append(report.Candidates, WireCandidate{
			Fingerprint: c.Fingerprint,
			Position:    c.Position,
			Decisions:   c.Decisions,
		})
	}
	var ack ReportResponse
	if err := a.withRetry(ctx, func() error {
		return a.call("/v1/report", report, &ack)
	}); err != nil {
		return err
	}
	a.logf("lease %d: reported [%d, %d) resolved to %d", lr.Lease, res.From, res.To, res.ResolvedTo)
	return nil
}
