package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fixtureTest is a tiny deterministic workload whose buggy decision
// sequence is known by hand: one schedule decision for the entry machine,
// two bools, one int. It exists so a PR-2-era trace can be pinned as a
// byte-level fixture.
func fixtureTest() Test {
	return Test{
		Name: "trace-fixture",
		Entry: func(ctx *Context) {
			a := ctx.RandomBool()
			b := ctx.RandomBool()
			n := ctx.RandomInt(3)
			ctx.Assert(!(a && b && n == 2), "seeded fixture violation")
		},
	}
}

// legacyTraceFixture is a verbatim PR-2-era trace: no version field
// (version 0) and only schedule/bool/int decision kinds. Its bytes must
// keep decoding — and replaying — forever.
const legacyTraceFixture = `{
 "test": "trace-fixture",
 "scheduler": "random",
 "seed": 7,
 "decisions": [
  {"k": "s"},
  {"k": "b", "b": true},
  {"k": "b", "b": true},
  {"k": "i", "v": 2, "n": 3}
 ]
}`

// TestLegacyTraceDecodesAndReplays: version-0 traces written before the
// fault plane still decode (as version 0) and replay to their violation.
func TestLegacyTraceDecodesAndReplays(t *testing.T) {
	tr, err := DecodeTrace([]byte(legacyTraceFixture))
	if err != nil {
		t.Fatalf("legacy trace no longer decodes: %v", err)
	}
	if tr.Version != 0 {
		t.Fatalf("legacy trace decoded as version %d, want 0", tr.Version)
	}
	if len(tr.Decisions) != 4 {
		t.Fatalf("decoded %d decisions, want 4", len(tr.Decisions))
	}
	rep, err := Replay(fixtureTest(), tr, Options{NoReplayLog: true})
	if err != nil {
		t.Fatalf("legacy trace no longer replays: %v", err)
	}
	if rep == nil || !strings.Contains(rep.Message, "seeded fixture violation") {
		t.Fatalf("legacy trace replayed to %+v, want the seeded violation", rep)
	}
}

// faultEraTraceFixture is a verbatim PR-8-era (version 1) trace of the
// same fixture workload: it declares the fault-plane format but predates
// the crash-consistency plane, so it carries no persist decisions. Its
// bytes must keep decoding — and replaying — after the version-2 bump.
const faultEraTraceFixture = `{
 "version": 1,
 "test": "trace-fixture",
 "scheduler": "random",
 "seed": 11,
 "faults": {},
 "decisions": [
  {"k": "s"},
  {"k": "b", "b": true},
  {"k": "b", "b": true},
  {"k": "i", "v": 2, "n": 3}
 ]
}`

// TestFaultEraTraceDecodesAndReplays: version-1 traces written before the
// crash-consistency plane still decode (as version 1) and replay to their
// violation under the version-2 engine.
func TestFaultEraTraceDecodesAndReplays(t *testing.T) {
	tr, err := DecodeTrace([]byte(faultEraTraceFixture))
	if err != nil {
		t.Fatalf("version-1 trace no longer decodes: %v", err)
	}
	if tr.Version != 1 {
		t.Fatalf("version-1 trace decoded as version %d, want 1", tr.Version)
	}
	rep, err := Replay(fixtureTest(), tr, Options{NoReplayLog: true})
	if err != nil {
		t.Fatalf("version-1 trace no longer replays: %v", err)
	}
	if rep == nil || !strings.Contains(rep.Message, "seeded fixture violation") {
		t.Fatalf("version-1 trace replayed to %+v, want the seeded violation", rep)
	}
}

// TestEncodeStampsCurrentVersion: engine-recorded traces carry the
// current format version on the wire.
func TestEncodeStampsCurrentVersion(t *testing.T) {
	res := MustExplore(fixtureTest(), Options{Scheduler: "random", Iterations: 100, Seed: 1, NoReplayLog: true})
	if !res.BugFound {
		t.Fatal("setup: fixture bug not found")
	}
	if res.Report.Trace.Version != TraceVersion {
		t.Fatalf("recorded trace version %d, want %d", res.Report.Trace.Version, TraceVersion)
	}
	data, err := res.Report.Trace.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Fatalf("encoded trace lacks the version field:\n%.200s", data)
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != TraceVersion {
		t.Fatalf("round-tripped version %d, want %d", got.Version, TraceVersion)
	}
}

// TestDecodeTraceStrictness: unknown versions, unknown decision kinds,
// and fault kinds smuggled into a version-0 trace are all hard errors —
// a trace that is not fully understood must not be "replayed" loosely.
func TestDecodeTraceStrictness(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{
			"future version",
			`{"version": 99, "test": "x", "scheduler": "s", "seed": 1, "decisions": []}`,
			"unknown trace version 99",
		},
		{
			"negative version",
			`{"version": -1, "test": "x", "scheduler": "s", "seed": 1, "decisions": []}`,
			"unknown trace version",
		},
		{
			"unknown decision kind",
			`{"version": 1, "test": "x", "scheduler": "s", "seed": 1, "decisions": [{"k": "z"}]}`,
			`bad decision kind "z"`,
		},
		{
			"timer kind in version 0",
			`{"test": "x", "scheduler": "s", "seed": 1, "decisions": [{"k": "t", "m": 3, "b": true}]}`,
			`kind "t" requires trace version >= 1`,
		},
		{
			"crash kind in version 0",
			`{"test": "x", "scheduler": "s", "seed": 1, "decisions": [{"k": "c", "m": 2, "v": 1, "n": 3}]}`,
			`kind "c" requires trace version >= 1`,
		},
		{
			"deliver kind in version 0",
			`{"test": "x", "scheduler": "s", "seed": 1, "decisions": [{"k": "d", "m": 2, "v": 1, "n": 3}]}`,
			`kind "d" requires trace version >= 1`,
		},
		{
			"persist kind in version 0",
			`{"test": "x", "scheduler": "s", "seed": 1, "decisions": [{"k": "p", "m": 2, "v": 1, "n": 3}]}`,
			`kind "p" requires trace version >= 2`,
		},
		{
			"persist kind in version 1",
			`{"version": 1, "test": "x", "scheduler": "s", "seed": 1, "decisions": [{"k": "p", "m": 2, "v": 1, "n": 3}]}`,
			`kind "p" requires trace version >= 2`,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeTrace([]byte(c.data))
			if err == nil {
				t.Fatal("decode accepted a malformed trace")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q lacks %q", err, c.want)
			}
		})
	}
}

// TestFaultDecisionJSONRoundTrip pins the wire form of the new kinds.
func TestFaultDecisionJSONRoundTrip(t *testing.T) {
	tr := newTrace("x", "random", 42, Faults{MaxCrashes: 1, MaxDrops: 1, MaxDuplicates: 1}, []Decision{
		{Kind: DecisionSchedule, Machine: 3},
		{Kind: DecisionTimer, Machine: 5, Bool: true},
		{Kind: DecisionTimer, Machine: 6, Bool: false},
		{Kind: DecisionCrash, Machine: 2, Int: 1, N: 3},
		{Kind: DecisionCrash, Machine: NoMachine, Int: 0, N: 4},
		{Kind: DecisionDeliver, Machine: 7, Int: int(Drop), N: 3},
		{Kind: DecisionDeliver, Machine: 7, Int: int(Duplicate), N: 3},
		{Kind: DecisionPersist, Machine: 4, Int: 0, N: 3},
		{Kind: DecisionPersist, Machine: 4, Int: 2, N: 3},
	})
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Decisions) != len(tr.Decisions) {
		t.Fatalf("decision count %d, want %d", len(got.Decisions), len(tr.Decisions))
	}
	for i := range tr.Decisions {
		if got.Decisions[i] != tr.Decisions[i] {
			t.Fatalf("decision %d: %s != %s", i, got.Decisions[i], tr.Decisions[i])
		}
	}
}

// FuzzDecodeTrace holds the decoder every replay rests on to two promises,
// whatever bytes it is handed: it never panics, and a trace it accepts is one
// this build fully understands — its decision kinds are admissible at the
// version it declares, and it re-encodes (at the current version) and decodes
// again to the same trace. It also holds the hand-rolled encoder to its
// oracle: whatever trace DecodeTrace accepts, Encode writes referenceEncode's
// bytes for it.
func FuzzDecodeTrace(f *testing.F) {
	for _, tr := range []*Trace{codecTrace(f, 40), escapesTrace()} {
		seed, err := referenceEncode(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(legacyTraceFixture))
	f.Add([]byte(faultEraTraceFixture))
	fresh, err := newTrace("x", "random", 42, Faults{MaxCrashes: 1, MaxDrops: 1, MaxDuplicates: 1, MaxTornCrashes: 1}, []Decision{
		{Kind: DecisionSchedule, Machine: 3},
		{Kind: DecisionBool, Bool: true},
		{Kind: DecisionInt, Int: 2, N: 3},
		{Kind: DecisionTimer, Machine: 5, Bool: true},
		{Kind: DecisionCrash, Machine: NoMachine, Int: 0, N: 4},
		{Kind: DecisionDeliver, Machine: 7, Int: int(Duplicate), N: 3},
		{Kind: DecisionPersist, Machine: 4, Int: 2, N: 3},
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	f.Add([]byte(negativeIntTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			return
		}
		if tr.Version < 0 || tr.Version > TraceVersion {
			t.Fatalf("accepted version %d outside 0..%d", tr.Version, TraceVersion)
		}
		for i, d := range tr.Decisions {
			need := 0
			switch {
			case d.Kind == DecisionPersist:
				need = 2
			case d.Kind == DecisionTimer || d.Kind == DecisionCrash || d.Kind == DecisionDeliver:
				need = 1
			}
			if tr.Version < need {
				t.Fatalf("decision %d: kind %q accepted in a version-%d trace, needs >= %d", i, string(d.Kind), tr.Version, need)
			}
		}
		enc, err := tr.Encode()
		if err != nil {
			t.Fatalf("accepted trace does not re-encode: %v\n%s", err, data)
		}
		if ref, err := referenceEncode(tr); err != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("Encode differs from encoding/json (%v):\n got %q\nwant %q", err, enc, ref)
		}
		again, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, enc)
		}
		want := *tr
		want.Version = TraceVersion
		if !reflect.DeepEqual(*again, want) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", *again, want)
		}
	})
}
