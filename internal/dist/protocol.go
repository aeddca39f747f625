// Package dist is the distributed exploration control plane: a
// coordinator (cmd/gostormd) that owns one exploration plan and a fleet of
// thin agents (cmd/gostorm-agent) that pull work from it over a
// stdlib-only HTTP+JSON protocol.
//
// The plan is the global position space of core.ExploreShard: nm portfolio
// members times Iterations executions, position g = i*nm + m, every
// position's schedule a pure function of (Seed, member, iteration). The
// coordinator cuts [0, PlanSize) into bounded leases and hands them out
// lowest-first as agents ask (pull-model work stealing); a lease that is
// not reported back within its TTL is re-issued, so a dead or wedged agent
// cannot strand its range. Agents run each lease with core.ExploreShard
// and report the resolved prefix, statistics and any bug. The coordinator
// stores what has happened — the resolved positions, the live leases, the
// limit a reported bug lowers — and derives what is still to do from it
// (lease.go), so its cost follows the work resolved, never the size of the
// plan.
//
// First-bug-wins is deterministic by construction: the fleet's winner is
// the bug with the lowest global position, and since every position's
// outcome is position-pure, that winner — member, member-local iteration,
// encoded trace bytes — is bit-identical whatever the agent count, lease
// size, report arrival order, or mid-flight agent deaths. The coordinator
// enforces the contract at runtime: two reports for the same position must
// carry identical trace bytes, anything else is flagged as a determinism
// violation. A bug only "wins" once every position below it has resolved;
// until then lower leases stay outstanding and the stop bound (pushed to
// agents via lease/report/status responses) prunes everything at or above
// the best bug.
//
// The coordinator accepts only a plan whose every sub-range an agent can
// explore on its own (core.CheckSubRange): a feedback (mutational) member
// ties each position to the ones before it, so a plan with one runs whole,
// in one process.
//
// Three files, three jobs. coordinator.go is the state machine: join, lease,
// report and status take the time and a request and return a response or an
// error — no socket, no JSON, no clock but the one passed in — so a test or a
// harness drives them, lease expiry included, with a fabricated time. This
// file is the wire: the message types and, once for both ends, how an
// exchange is framed (endpoint). agent.go is the agent's loop: leases, retry
// policy, the stop-bound poller; an agent keeps nothing between leases but
// the plan, so every lease is explored as a fresh process would explore
// it. A shard's statistics cover its own range (core.ShardResult), so the
// fleet's sum over first reports is Explore's count at any fleet size.
package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/gostorm/gostorm/internal/core"
)

// ProtocolVersion is the control-plane wire version. Join requests carry
// it; a coordinator rejects agents it does not match, so a mixed fleet
// fails loudly instead of diverging. Version 2 removed the liveness
// threshold and version 3 the pct/delay depth: plan fields that a coordinator
// of the version before could publish with any value and an agent of this
// build would silently ignore. Version 4 removed no_faults and made faults
// optional: a version-3 agent reads "faults":{} as "the test's budget",
// where this build's plan means "no faults".
const ProtocolVersion = 4

// PlanConfig is the exploration plan, published by the coordinator at join
// time so every agent derives the identical schedule space. The plan on
// the wire is core.Options itself: its JSON tags decide, field by field,
// what is determinism-relevant and travels and what is machine-local
// (`json:"-"`) and is set by each agent (see localOptions).
type PlanConfig struct {
	Scenario string `json:"scenario"`
	core.Options
	// Total is the plan's position count (PlanSize of the options above),
	// published so agents can sanity-check their derivation.
	Total int64 `json:"total"`
}

// JoinRequest introduces an agent to the coordinator.
type JoinRequest struct {
	Protocol int    `json:"protocol"`
	Agent    string `json:"agent"`
}

// JoinResponse hands the agent the plan.
type JoinResponse struct {
	Plan PlanConfig `json:"plan"`
}

// LeaseRequest asks for the next work lease.
type LeaseRequest struct {
	Agent string `json:"agent"`
}

// LeaseResponse grants a position range, tells the agent to retry later,
// or reports the run done. Stop is the current pruning bound (positions >=
// Stop are already superseded).
type LeaseResponse struct {
	Done    bool  `json:"done,omitempty"`
	None    bool  `json:"none,omitempty"`
	RetryMs int   `json:"retry_ms,omitempty"`
	Lease   int64 `json:"lease,omitempty"`
	From    int64 `json:"from,omitempty"`
	To      int64 `json:"to,omitempty"`
	Stop    int64 `json:"stop,omitempty"`
}

// WireBug is a bug report in transit: the attribution triple plus the
// encoded trace bytes — the exact bytes the determinism contract is stated
// over.
type WireBug struct {
	Pos       int64  `json:"pos"`
	Member    int    `json:"member"`
	Iteration int    `json:"iteration"`
	Kind      int    `json:"kind"`
	Message   string `json:"message"`
	Machine   string `json:"machine,omitempty"`
	Step      int    `json:"step"`
	Trace     []byte `json:"trace"`
}

// ReportRequest returns a lease's results. ResolvedTo < To means the tail
// was pruned or unfinished; it is pending again if still needed. The
// coordinator rejects a report the plan cannot have produced (see
// Coordinator.validate).
type ReportRequest struct {
	Agent      string   `json:"agent"`
	Lease      int64    `json:"lease"`
	From       int64    `json:"from"`
	To         int64    `json:"to"`
	ResolvedTo int64    `json:"resolved_to"`
	Executions int      `json:"executions"`
	TotalSteps int64    `json:"total_steps"`
	Bug        *WireBug `json:"bug,omitempty"`
}

// ReportResponse acknowledges a report and pushes the latest bounds.
type ReportResponse struct {
	Done bool  `json:"done,omitempty"`
	Stop int64 `json:"stop"`
}

// StatusResponse is the coordinator's public state snapshot (/v1/status).
type StatusResponse struct {
	Done        bool    `json:"done"`
	Total       int64   `json:"total"`
	Resolved    int64   `json:"resolved"`
	Frontier    int64   `json:"frontier"`
	Stop        int64   `json:"stop"`
	BugFound    bool    `json:"bug_found"`
	BugPos      int64   `json:"bug_pos,omitempty"`
	Executions  int64   `json:"executions"`
	TotalSteps  int64   `json:"total_steps"`
	PerSecond   float64 `json:"iterations_per_second"`
	Leases      int     `json:"leases_outstanding"`
	AgentsLive  int     `json:"agents_live"`
	ElapsedSecs float64 `json:"elapsed_seconds"`
}

// endpoint is one exchange of the protocol, stated once: serve is the
// coordinator's half, call the agent's, so the framing (JSON bodies, the
// size cap, 200 or an error text) cannot differ between the ends. A GET
// carries no request body.
type endpoint[Req, Resp any] struct {
	method, path string
}

var (
	joinEndpoint   = endpoint[JoinRequest, JoinResponse]{http.MethodPost, "/v1/join"}
	leaseEndpoint  = endpoint[LeaseRequest, LeaseResponse]{http.MethodPost, "/v1/lease"}
	reportEndpoint = endpoint[ReportRequest, ReportResponse]{http.MethodPost, "/v1/report"}
	statusEndpoint = endpoint[struct{}, StatusResponse]{http.MethodGet, "/v1/status"}
)

const (
	contentType = "application/json"
	// maxBody caps a message in either direction; a winning trace is the
	// bulk of the largest.
	maxBody = 64 << 20
)

// serve mounts the exchange on mux: the body read whole and decoded into a
// Req exactly as call decodes an answer, handled at the time clock reads,
// and the Resp written as JSON. A body that is not one JSON value, or an
// error from handle, is a 400 carrying the text.
func (e endpoint[Req, Resp]) serve(mux *http.ServeMux, clock func() time.Time, handle func(time.Time, Req) (Resp, error)) {
	mux.HandleFunc(e.method+" "+e.path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if e.method == http.MethodPost {
			data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
			if err == nil {
				err = json.Unmarshal(data, &req)
			}
			if err != nil {
				http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
				return
			}
		}
		resp, err := handle(clock(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", contentType)
		json.NewEncoder(w).Encode(resp)
	})
}

// call performs the exchange against the coordinator at base and returns
// its decoded 200 answer; any other status is a *statusError.
func (e endpoint[Req, Resp]) call(hc *http.Client, base string, req Req) (resp Resp, err error) {
	var body io.Reader
	if e.method == http.MethodPost {
		data, err := json.Marshal(req)
		if err != nil {
			return resp, err
		}
		body = bytes.NewReader(data)
	}
	hr, err := http.NewRequest(e.method, base+e.path, body)
	if err != nil {
		return resp, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", contentType)
	}
	r, err := hc.Do(hr)
	if err != nil {
		return resp, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		return resp, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, &statusError{path: e.path, code: r.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	err = json.Unmarshal(data, &resp)
	return resp, err
}

// statusError is the coordinator answering with anything but 200.
type statusError struct {
	path, body string
	code       int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("dist: %s: %d %s: %s", e.path, e.code, http.StatusText(e.code), e.body)
}

// writeMetrics renders st in the Prometheus text exposition format. Every
// sample is a reading of the status snapshot, so /metrics and /v1/status
// cannot disagree.
func writeMetrics(w io.Writer, st StatusResponse) {
	bugFound := 0
	if st.BugFound {
		bugFound = 1
	}
	for _, m := range []struct {
		name, typ, help string
		value           any // an integer or a float64
	}{
		{"gostorm_leases_outstanding", "gauge", "Leases currently held by agents.", st.Leases},
		{"gostorm_agents_live", "gauge", "Agents seen within three lease TTLs.", st.AgentsLive},
		{"gostorm_iterations_total", "counter", "Executions reported by the fleet.", st.Executions},
		{"gostorm_iterations_per_second", "gauge", "Fleet execution rate since start.", st.PerSecond},
		{"gostorm_positions_resolved", "gauge", "Global positions resolved.", st.Resolved},
		{"gostorm_bug_found", "gauge", "Whether a winning bug has been reported.", bugFound},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
}
