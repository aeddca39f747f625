package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// DefaultPoll is the status-poll cadence a zero AgentConfig.Poll stands for.
const DefaultPoll = 250 * time.Millisecond

// AgentConfig configures an exploration agent.
type AgentConfig struct {
	// Coordinator is the control-plane base URL (e.g. "http://host:7077").
	Coordinator string
	// Name identifies the agent in leases, logs and metrics.
	Name string
	// Workers is the agent's local exploration parallelism (0 = one per
	// CPU, the engine default; negative is an error).
	Workers int
	// Poll is the status-poll cadence while a lease is running; the poll
	// lowers the local stop bound as the fleet's best bug improves
	// (0 = DefaultPoll; negative is an error).
	Poll time.Duration
	// BuildTest maps the plan's scenario name to a runnable test. The
	// binaries wire the catalog here; tests wire fixtures.
	BuildTest func(scenario string) (core.Test, error)
	// Log, when non-nil, receives one line per agent event.
	Log func(format string, args ...any)
}

// Agent pulls leases from a coordinator and runs them with
// core.ExploreShard. It is deliberately thin: all determinism lives in the
// engine, all fleet state in the coordinator, and nothing carries over from
// one lease to the next but the plan it joined.
type Agent struct {
	cfg  AgentConfig
	hc   *http.Client
	plan PlanConfig
	test core.Test
	opts core.Options
}

// NewAgent validates the configuration, so a bad one fails before Run
// takes a lease it could not run.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" {
		return nil, &core.ConfigError{Field: "AgentConfig.Coordinator", Reason: "is required"}
	}
	if cfg.Name == "" {
		return nil, &core.ConfigError{Field: "AgentConfig.Name", Reason: "is required"}
	}
	if cfg.BuildTest == nil {
		return nil, &core.ConfigError{Field: "AgentConfig.BuildTest", Reason: "is required"}
	}
	if cfg.Workers < 0 {
		return nil, &core.ConfigError{Field: "AgentConfig.Workers", Reason: fmt.Sprintf("must be non-negative, got %d", cfg.Workers)}
	}
	if cfg.Poll < 0 {
		return nil, &core.ConfigError{Field: "AgentConfig.Poll", Reason: fmt.Sprintf("must be non-negative, got %v", cfg.Poll)}
	}
	if cfg.Poll == 0 {
		cfg.Poll = DefaultPoll
	}
	return &Agent{cfg: cfg, hc: &http.Client{Timeout: 30 * time.Second}}, nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Log != nil {
		a.cfg.Log(format, args...)
	}
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
	jr, err := exchange(ctx, a, joinEndpoint, JoinRequest{Protocol: ProtocolVersion, Agent: a.cfg.Name})
	if err != nil {
		return err
	}
	a.plan = jr.Plan
	a.logf("joined: scenario %q, plan of %d position(s)", a.plan.Scenario, a.plan.Total)
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
		lr, err := exchange(ctx, a, leaseEndpoint, LeaseRequest{Agent: a.cfg.Name})
		switch {
		case err != nil:
			return err
		case lr.Done:
			a.logf("run complete")
			return nil
		case lr.None:
			err = sleep(ctx, time.Duration(lr.RetryMs)*time.Millisecond)
		default:
			err = a.runLease(ctx, lr)
		}
		if err != nil {
			return err
		}
	}
}

// exchange performs e with the agent's coordinator, retrying with capped
// exponential backoff until it succeeds, the context dies, or the attempts
// run out — a join waits for the coordinator to come up this way. A request
// the coordinator rejects (400: wrong protocol version, a report off the
// plan) fails immediately — no retry will fix it.
func exchange[Req, Resp any](ctx context.Context, a *Agent, e endpoint[Req, Resp], req Req) (resp Resp, err error) {
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		if resp, err = e.call(a.hc, a.cfg.Coordinator, req); err == nil {
			return resp, nil
		}
		var rejected *statusError
		if errors.As(err, &rejected) && rejected.code == http.StatusBadRequest {
			return resp, err
		}
		a.logf("transient control-plane error (attempt %d): %v", attempt+1, err)
		if serr := sleep(ctx, backoff); serr != nil {
			return resp, serr
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	return resp, err
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
			st, err := statusEndpoint.call(a.hc, a.cfg.Coordinator, struct{}{})
			if err == nil && st.Stop < stop.Load() {
				stop.Store(st.Stop)
			}
		}
	}()

	res, err := core.ExploreShard(a.test, a.opts, core.Shard{From: lr.From, To: lr.To, Stop: stop.Load})
	cancelPoll()
	<-pollDone
	if err != nil {
		return err
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
	if _, err := exchange(ctx, a, reportEndpoint, report); err != nil {
		return err
	}
	a.logf("lease %d: reported [%d, %d) resolved to %d", lr.Lease, res.From, res.To, res.ResolvedTo)
	return nil
}
