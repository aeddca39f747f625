package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceRoundTrip(t *testing.T) {
	// Encode always stamps the writer's format version, so a round-tripped
	// trace carries TraceVersion no matter what the in-memory struct held.
	tr := &Trace{
		Version:   TraceVersion,
		Test:      "x",
		Scheduler: "random",
		Seed:      42,
		Decisions: []Decision{
			{Kind: DecisionSchedule, Machine: 3},
			{Kind: DecisionBool, Bool: true},
			{Kind: DecisionBool, Bool: false},
			{Kind: DecisionInt, Int: 7, N: 10},
		},
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr, got)
	}
}

// TestDecArenaRoundTrip pins the arena packing against the struct
// literals the engine used to append directly: decode must reproduce the
// exact Decision values — including the Machine=0 zero value of the
// machine-less bool/int kinds (not NoMachine), which trace-byte and
// struct-equality compatibility depend on — and the arena must survive
// reset and negative or large int payloads.
func TestDecArenaRoundTrip(t *testing.T) {
	var a decArena
	a.add(DecisionSchedule, 3, false, 0, 0)
	a.add(DecisionBool, 0, true, 0, 0)
	a.add(DecisionBool, 0, false, 0, 0)
	a.add(DecisionInt, 0, false, 7, 10)
	a.add(DecisionTimer, 5, true, 0, 0)
	a.add(DecisionTimer, 6, false, 0, 0)
	a.add(DecisionCrash, NoMachine, false, 0, 4)
	a.add(DecisionCrash, 2, false, 3, 4)
	a.add(DecisionDeliver, 1, false, 2, 3)
	a.add(DecisionInt, 0, false, -9, 1<<40)
	want := []Decision{
		{Kind: DecisionSchedule, Machine: 3},
		{Kind: DecisionBool, Bool: true},
		{Kind: DecisionBool, Bool: false},
		{Kind: DecisionInt, Int: 7, N: 10},
		{Kind: DecisionTimer, Machine: 5, Bool: true},
		{Kind: DecisionTimer, Machine: 6, Bool: false},
		{Kind: DecisionCrash, Machine: NoMachine, Int: 0, N: 4},
		{Kind: DecisionCrash, Machine: 2, Int: 3, N: 4},
		{Kind: DecisionDeliver, Machine: 1, Int: 2, N: 3},
		{Kind: DecisionInt, Int: -9, N: 1 << 40},
	}
	if a.n != len(want) {
		t.Fatalf("len = %d, want %d", a.n, len(want))
	}
	got := a.decode()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode mismatch:\ngot  %v\nwant %v", got, want)
	}
	// decode is a fresh copy: a second call must not alias the first.
	got2 := a.decode()
	got2[0].Machine = 99
	if got[0].Machine != 3 {
		t.Fatal("decode results alias each other")
	}
	a.reset()
	if a.n != 0 || a.decode() != nil {
		t.Fatalf("reset arena not empty: len=%d", a.n)
	}
	a.add(DecisionSchedule, 1, false, 0, 0)
	if d := a.decode(); len(d) != 1 || d[0] != (Decision{Kind: DecisionSchedule, Machine: 1}) {
		t.Fatalf("arena after reset decodes wrong: %v", d)
	}
}

// TestTraceRoundTripProperty checks encode/decode over randomly generated
// decision sequences.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Version: TraceVersion, Test: "p", Scheduler: "random", Seed: seed}
		for i := 0; i < int(n); i++ {
			switch rng.Intn(3) {
			case 0:
				tr.Decisions = append(tr.Decisions, Decision{Kind: DecisionSchedule, Machine: MachineID(rng.Intn(100))})
			case 1:
				tr.Decisions = append(tr.Decisions, Decision{Kind: DecisionBool, Bool: rng.Intn(2) == 0})
			default:
				bound := 1 + rng.Intn(50)
				tr.Decisions = append(tr.Decisions, Decision{Kind: DecisionInt, Int: rng.Intn(bound), N: bound})
			}
		}
		data, err := tr.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeTrace(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayReproducesBug(t *testing.T) {
	opts := Options{Scheduler: "random", Iterations: 2000, Seed: 5, NoReplayLog: true}
	res := MustExplore(raceTest(), opts)
	if !res.BugFound {
		t.Fatal("setup: bug not found")
	}
	rep, err := Replay(raceTest(), res.Report.Trace, opts)
	if err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if rep == nil {
		t.Fatal("replay reproduced no bug")
	}
	if rep.Message != res.Report.Message || rep.Step != res.Report.Step {
		t.Fatalf("replay mismatch: (%q, %d) vs (%q, %d)", rep.Message, rep.Step, res.Report.Message, res.Report.Step)
	}
	if len(rep.Log) == 0 {
		t.Fatal("replay collected no log")
	}
}

// TestReplayDeterminismProperty: for any seed, if a run finds a bug, its
// trace replays to the identical violation.
func TestReplayDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		opts := Options{Scheduler: "random", Iterations: 50, Seed: seed, NoReplayLog: true}
		res := MustExplore(raceTest(), opts)
		if !res.BugFound {
			return true // nothing to replay
		}
		rep, err := Replay(raceTest(), res.Report.Trace, opts)
		if err != nil || rep == nil {
			return false
		}
		return rep.Message == res.Report.Message && rep.Step == res.Report.Step
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	opts := Options{Scheduler: "random", Iterations: 2000, Seed: 5, NoReplayLog: true}
	res := MustExplore(raceTest(), opts)
	if !res.BugFound {
		t.Fatal("setup: bug not found")
	}
	// Replaying the trace against a different program must diverge (or at
	// minimum not panic the process).
	_, err := Replay(boolComboTest(), res.Report.Trace, opts)
	if err == nil {
		t.Fatal("expected divergence error replaying a foreign trace")
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Fatalf("error %q does not mention divergence", err)
	}
}

// TestReplayThatStopsShortIsADivergence: a replay that ends clean with
// recorded decisions left over did not replay the trace — the step bound was
// lowered, or the trace is another test's — and must say so instead of
// reporting "no violation".
func TestReplayThatStopsShortIsADivergence(t *testing.T) {
	opts := Options{Scheduler: "random", Iterations: 2000, Seed: 5, NoReplayLog: true}
	res := MustExplore(raceTest(), opts)
	if !res.BugFound {
		t.Fatal("setup: bug not found")
	}
	n := len(res.Report.Trace.Decisions)
	short := opts
	short.MaxSteps = 2
	rep, err := Replay(raceTest(), res.Report.Trace, short)
	if rep != nil || err == nil {
		t.Fatalf("replay under MaxSteps 2 of a %d-decision trace = (%v, %v), want a divergence error", n, rep, err)
	}
	for _, want := range []string{"divergence", fmt.Sprintf("of the %d recorded decisions", n), "MaxSteps"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
	// The same trace with a decision appended: the program finishes first.
	long := *res.Report.Trace
	long.Decisions = append(append([]Decision(nil), long.Decisions...), Decision{Kind: DecisionBool})
	if rep, err := Replay(raceTest(), &long, opts); err != nil || rep == nil {
		t.Fatalf("a reproduced violation must win over leftover decisions: (%v, %v)", rep, err)
	}
}

// negativeIntTrace is a trace DecodeTrace accepts whose int decision holds a
// value below its range.
const negativeIntTrace = `{"version":2,"test":"neg","scheduler":"random","seed":1,"faults":{},"decisions":[{"k":"s"},{"k":"i","v":-1,"n":3}]}`

// TestRecordedNegativeValueNeverReachesTheHarness: RandomInt(3) under a
// decoded trace or a corpus entry that records -1 for it returns nothing
// outside [0, 3) to user code — the replay diverges, the splice abandons the
// prefix and draws.
func TestRecordedNegativeValueNeverReachesTheHarness(t *testing.T) {
	tr, err := DecodeTrace([]byte(negativeIntTrace))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	test := Test{Name: "neg", Entry: func(ctx *Context) { got = append(got, ctx.RandomInt(3)) }}
	const want = "core: replay divergence: decision 1: int choice -1 out of range 3"
	if rep, err := Replay(test, tr, Options{}); rep != nil || err == nil || err.Error() != want || len(got) != 0 {
		t.Fatalf("Replay = (%v, %v) with RandomInt returning %v, want the divergence %q", rep, err, got, want)
	}

	corpus := NewCorpus(1)
	corpus.Add(1, 0, tr.Decisions)
	s := NewMutationalScheduler().(*mutationalScheduler)
	s.AttachCorpus(corpus)
	whole := 0
	for seed := int64(0); seed < 40; seed++ {
		s.Prepare(seed, 100)
		if len(s.prefix) == len(tr.Decisions) {
			whole++
		}
		s.NextMachine([]MachineID{0})
		if v := s.NextInt(3); v < 0 || v >= 3 {
			t.Fatalf("seed %d: the splice answered NextInt(3) with %d", seed, v)
		}
	}
	if whole == 0 {
		t.Fatal("no seed spliced the whole entry: the negative value was never reached")
	}
}

func TestRunAttachesReplayLog(t *testing.T) {
	res := MustExplore(raceTest(), Options{Scheduler: "random", Iterations: 2000, Seed: 5})
	if !res.BugFound {
		t.Fatal("bug not found")
	}
	if len(res.Report.Log) == 0 {
		t.Fatal("no replay log attached")
	}
	joined := strings.Join(res.Report.Log, "\n")
	if !strings.Contains(joined, "send") {
		t.Fatalf("log lacks send records:\n%s", joined)
	}
}
