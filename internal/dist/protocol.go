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
// and report the resolved prefix, statistics, any bug, and any corpus
// candidates. The coordinator stores what has happened — the resolved
// positions, the live leases, the limit a reported bug lowers — and derives
// what is still to do from it (lease.go), so its cost follows the work
// resolved, never the size of the plan.
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
// Corpus entries reported by feedback-scheduler shards are merged into a
// fleet-wide corpus in canonical position order as the resolved frontier
// advances, and the merged snapshot ships with every lease — distributed
// corpus sharing is a best-effort accelerator (see the ExploreShard
// determinism caveat), the winner attribution above never depends on it.
package dist

import (
	"github.com/gostorm/gostorm/internal/core"
)

// ProtocolVersion is the control-plane wire version. Join requests carry
// it; a coordinator rejects agents it does not match, so a mixed fleet
// fails loudly instead of diverging.
const ProtocolVersion = 1

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
// Stop are already superseded); Corpus, when non-empty, is the encoded
// fleet corpus snapshot for feedback schedulers.
type LeaseResponse struct {
	Done    bool   `json:"done,omitempty"`
	None    bool   `json:"none,omitempty"`
	RetryMs int    `json:"retry_ms,omitempty"`
	Lease   int64  `json:"lease,omitempty"`
	From    int64  `json:"from,omitempty"`
	To      int64  `json:"to,omitempty"`
	Stop    int64  `json:"stop,omitempty"`
	Corpus  []byte `json:"corpus,omitempty"`
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

// WireCandidate is one corpus candidate in transit.
type WireCandidate struct {
	Fingerprint uint64 `json:"fp"`
	Position    int64  `json:"pos"`
	// Decisions is the candidate's decision sequence in the trace JSON
	// decision encoding.
	Decisions []core.Decision `json:"d"`
}

// ReportRequest returns a lease's results. ResolvedTo < To means the tail
// was pruned or unfinished; it is pending again if still needed. The
// coordinator rejects a report the plan cannot have produced (see
// Coordinator.validate).
type ReportRequest struct {
	Agent      string          `json:"agent"`
	Lease      int64           `json:"lease"`
	From       int64           `json:"from"`
	To         int64           `json:"to"`
	ResolvedTo int64           `json:"resolved_to"`
	Executions int             `json:"executions"`
	TotalSteps int64           `json:"total_steps"`
	Bug        *WireBug        `json:"bug,omitempty"`
	Candidates []WireCandidate `json:"candidates,omitempty"`
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
	CorpusLen   int     `json:"corpus_len"`
	ElapsedSecs float64 `json:"elapsed_seconds"`
}
