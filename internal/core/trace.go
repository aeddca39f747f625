package core

import (
	"encoding/json"
	"fmt"
)

// TraceVersion is the trace format version this build writes. Version 0
// (PR-2 era, no version field) carried only schedule/bool/int decisions;
// version 1 added the typed fault kinds; version 2 added the persist kind
// of the crash-consistency plane. Decoding rejects versions this build
// does not understand, and rejects each kind in trace versions that
// predate it.
const TraceVersion = 2

// Trace is the complete decision sequence of one execution, sufficient to
// replay it exactly. In contrast to logs collected from a production
// system, a trace fixes a global order of all events, which is what makes
// the paper's replay-debugging loop work.
type Trace struct {
	// Version is the trace format version (see TraceVersion). Traces
	// written before versioning decode as version 0.
	Version   int    `json:"version,omitempty"`
	Test      string `json:"test"`
	Scheduler string `json:"scheduler"`
	Seed      int64  `json:"seed"`
	// Faults is the fault budget the execution ran under. It is part of
	// the trace because it is replay-relevant: the budget shapes which
	// fault choice points are presented, so Replay reconstructs the
	// recording run's budget from here rather than trusting the caller
	// to re-supply it. Version-0 traces decode to the zero budget, under
	// which they were necessarily recorded.
	Faults    Faults     `json:"faults"`
	Decisions []Decision `json:"decisions"`
}

// newTrace builds an engine-recorded trace at the current format version.
// decisions must be a freshly materialized slice the trace can own —
// decArena.decode allocates one out of the arena precisely so that pooled
// reuse of the arena's storage stays invisible to the trace.
func newTrace(test, scheduler string, seed int64, faults Faults, decisions []Decision) *Trace {
	return &Trace{
		Version:   TraceVersion,
		Test:      test,
		Scheduler: scheduler,
		Seed:      seed,
		Faults:    faults,
		Decisions: decisions,
	}
}

// decArena is the engine's per-execution decision log, packed into a flat
// word arena instead of a []Decision. Recording a decision on the hot path
// appends one word (three for the int-carrying kinds) to a growing slice
// the pool recycles across executions; the 40-byte Decision structs are
// materialized once per execution by decode — and only for executions
// somebody will actually look at (a bug was found, or a conformance/test
// harness wants the trace). Clean exploration executions, the vast
// majority, never pay for struct encoding at all.
//
// Word layout: bits 0..7 the DecisionKind, bit 8 the Bool, bits 32..63 the
// MachineID as a uint32 bit pattern (NoMachine = -1 round-trips). Kinds
// that carry Int/N (int, crash, deliver) append both as full words, so
// arbitrary int values survive unclipped.
type decArena struct {
	words []uint64
	n     int
}

const decBoolBit = 1 << 8

func decHeader(kind DecisionKind, m MachineID, b bool) uint64 {
	h := uint64(kind) | uint64(uint32(m))<<32
	if b {
		h |= decBoolBit
	}
	return h
}

// reset rewinds the arena, keeping its storage for the next execution.
func (a *decArena) reset() {
	a.words = a.words[:0]
	a.n = 0
}

// presize reserves capacity for about maxSteps decisions up front. An
// execution records at least one word per scheduling step, so growing the
// arena by append-doubling from nil costs ~2× the final size in copied
// garbage before the first reset; one sized allocation avoids that. The
// cap keeps a huge step bound from reserving memory no execution uses,
// and executions recording more than a word per step just fall back to
// append growth from a warm start.
func (a *decArena) presize(maxSteps int) {
	const maxPresize = 1 << 14
	n := min(maxSteps, maxPresize) + 64
	if cap(a.words) < n {
		a.words = make([]uint64, 0, n)
	}
}

// add records one decision, given as the Decision's five fields (scalars,
// because a Decision passed by value is built in memory and copied on every
// step): its header word and, for the kinds that carry Int and N, two more. A
// kind that carries no machine records the Decision zero value there (0, not
// NoMachine), which decode must reproduce exactly for struct comparisons and
// trace bytes to stay identical.
func (a *decArena) add(k DecisionKind, m MachineID, b bool, v, n int) {
	a.words = append(a.words, decHeader(k, m, b))
	if decisionKinds[k].integer {
		a.words = append(a.words, uint64(v), uint64(n))
	}
	a.n++
}

// decode materializes the recorded sequence as a fresh []Decision the
// caller owns (safe to hand to newTrace and to outlive the arena's next
// reset). Returns nil for an empty arena, matching the old nil decisions
// slice of an execution that made no choices.
func (a *decArena) decode() []Decision {
	if a.n == 0 {
		return nil
	}
	out := make([]Decision, a.n)
	w := a.words
	i := 0
	for k := range out {
		h := w[i]
		d := &out[k]
		d.Kind = DecisionKind(h & 0xff)
		d.Machine = MachineID(int32(uint32(h >> 32)))
		d.Bool = h&decBoolBit != 0
		i++
		if decisionKinds[d.Kind].integer {
			d.Int = int(int64(w[i]))
			d.N = int(int64(w[i+1]))
			i += 2
		}
	}
	return out
}

// Encode serializes the trace to JSON.
func (t *Trace) Encode() ([]byte, error) {
	// The written bytes always declare the current format version, even
	// for a trace decoded from an older one: this build's encoder writes
	// this build's format, which is a superset of every version it can
	// decode. Version gating (which decision kinds are admissible) applies
	// to the *decoded* version, before any re-encode.
	out := *t
	out.Version = TraceVersion
	return json.MarshalIndent(&out, "", " ")
}

// DecodeTrace parses a trace previously produced by Encode. Decoding is
// strict: a version this build does not know, an unknown decision kind, or
// a fault decision kind inside a version-0 trace are all errors — a trace
// that cannot be fully understood cannot be faithfully replayed.
func DecodeTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if t.Version < 0 || t.Version > TraceVersion {
		return nil, fmt.Errorf("core: decoding trace: unknown trace version %d (this build understands 0..%d)",
			t.Version, TraceVersion)
	}
	// Unknown kinds were already rejected by Decision.UnmarshalJSON; what
	// remains is version gating: a kind needs the version that introduced it.
	for i, d := range t.Decisions {
		if need := int(decisionKinds[d.Kind].version); t.Version < need {
			return nil, fmt.Errorf("core: decoding trace: decision %d kind %q requires trace version >= %d, trace declares %d",
				i, string(d.Kind), need, t.Version)
		}
	}
	return &t, nil
}
