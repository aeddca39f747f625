package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
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

// Encode serializes the trace to JSON: the bytes json.MarshalIndent(t, "",
// " ") writes for it (referenceEncode in the tests, which FuzzDecodeTrace
// holds it to), appended into one buffer without reflection, where
// encoding/json cost three allocations a decision.
func (t *Trace) Encode() ([]byte, error) {
	// The written bytes always declare the current format version, even
	// for a trace decoded from an older one: this build's encoder writes
	// this build's format, which is a superset of every version it can
	// decode. Version gating (which decision kinds are admissible) applies
	// to the *decoded* version, before any re-encode.
	b := make([]byte, 0, 160+len(t.Test)+len(t.Scheduler)+40*len(t.Decisions))
	b = append(b, "{\n \"version\": "...)
	b = strconv.AppendInt(b, TraceVersion, 10)
	b = append(b, ",\n \"test\": "...)
	b = appendJSONString(b, t.Test)
	b = append(b, ",\n \"scheduler\": "...)
	b = appendJSONString(b, t.Scheduler)
	b = append(b, ",\n \"seed\": "...)
	b = strconv.AppendInt(b, t.Seed, 10)
	b = append(b, ",\n \"faults\": "...)
	b = appendFaults(b, t.Faults)
	b = append(b, ",\n \"decisions\": "...)
	switch {
	case t.Decisions == nil:
		b = append(b, "null"...)
	case len(t.Decisions) == 0:
		b = append(b, "[]"...)
	default:
		for i, d := range t.Decisions {
			d, ok := d.carried()
			if !ok {
				return nil, fmt.Errorf("core: encoding trace: decision %d: cannot marshal decision kind %q", i, byte(d.Kind))
			}
			if i == 0 {
				b = append(b, "[\n  {\n   \"k\": \""...)
			} else {
				b = append(b, ",\n  {\n   \"k\": \""...)
			}
			b = append(b, byte(d.Kind), '"')
			if d.Machine != 0 {
				b = append(b, ",\n   \"m\": "...)
				b = strconv.AppendInt(b, int64(int32(d.Machine)), 10)
			}
			if d.Bool {
				b = append(b, ",\n   \"b\": true"...)
			}
			if d.Int != 0 {
				b = append(b, ",\n   \"v\": "...)
				b = strconv.AppendInt(b, int64(d.Int), 10)
			}
			if d.N != 0 {
				b = append(b, ",\n   \"n\": "...)
				b = strconv.AppendInt(b, int64(d.N), 10)
			}
			b = append(b, "\n  }"...)
		}
		b = append(b, "\n ]"...)
	}
	return append(b, "\n}"...), nil
}

// appendFaults appends the budget as MarshalIndent lays out the omitempty
// Faults struct one level deep: its nonzero members, or "{}" for none.
func appendFaults(b []byte, f Faults) []byte {
	members := [...]struct {
		name string
		v    int
	}{{"crashes", f.MaxCrashes}, {"drops", f.MaxDrops}, {"dups", f.MaxDuplicates}, {"torn", f.MaxTornCrashes}}
	sep := byte('{')
	for _, m := range members {
		if m.v == 0 {
			continue
		}
		b = append(b, sep, '\n', ' ', ' ', '"')
		b = append(b, m.name...)
		b = append(b, "\": "...)
		b = strconv.AppendInt(b, int64(m.v), 10)
		sep = ','
	}
	if sep == '{' {
		return append(b, "{}"...)
	}
	return append(b, "\n }"...)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it: HTML-escaped (<, > and & as \u00XX), control characters as
// their short escapes or \u00XX, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// traceWire is the wire form DecodeTrace fills with one json.Unmarshal:
// Trace's members under the same names, and each decision as its compact
// wire record rather than through Decision.UnmarshalJSON, which re-entered
// encoding/json once per decision.
type traceWire struct {
	Version   int                 `json:"version"`
	Test      string              `json:"test"`
	Scheduler string              `json:"scheduler"`
	Seed      int64               `json:"seed"`
	Faults    Faults              `json:"faults"`
	Decisions []traceDecisionJSON `json:"decisions"`
}

// DecodeTrace parses a trace previously produced by Encode. Decoding is
// strict: a version this build does not know, an unknown decision kind, or
// a fault decision kind inside a version-0 trace are all errors — a trace
// that cannot be fully understood cannot be faithfully replayed.
func DecodeTrace(data []byte) (*Trace, error) {
	var w traceWire
	// Every decision Encode writes carries a "k" member, so counting them
	// sizes the wire slice once instead of growing it by doubling. The
	// count is only a capacity — encoding/json fills the slice either way —
	// bounded by the ten bytes the shortest decision takes.
	if n := min(bytes.Count(data, []byte(`"k"`)), len(data)/10); n > 0 {
		w.Decisions = make([]traceDecisionJSON, 0, n)
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	if len(w.Decisions) == 0 && cap(w.Decisions) > 0 {
		// No "decisions" member at all left the presized slice in place;
		// absent decodes to nil, as null does ("[]" arrives with cap 0).
		w.Decisions = nil
	}
	t := &Trace{Version: w.Version, Test: w.Test, Scheduler: w.Scheduler, Seed: w.Seed, Faults: w.Faults}
	if w.Decisions != nil {
		t.Decisions = make([]Decision, len(w.Decisions))
	}
	for i, j := range w.Decisions {
		d, err := j.decision()
		if err != nil {
			return nil, fmt.Errorf("core: decoding trace: %w", err)
		}
		t.Decisions[i] = d
	}
	if t.Version < 0 || t.Version > TraceVersion {
		return nil, fmt.Errorf("core: decoding trace: unknown trace version %d (this build understands 0..%d)",
			t.Version, TraceVersion)
	}
	// What remains is version gating: a kind needs the version that
	// introduced it.
	for i, d := range t.Decisions {
		if need := int(decisionKinds[d.Kind].version); t.Version < need {
			return nil, fmt.Errorf("core: decoding trace: decision %d kind %q requires trace version >= %d, trace declares %d",
				i, string(d.Kind), need, t.Version)
		}
	}
	return t, nil
}
