package core

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"testing"
)

// referenceEncode is the encoder Encode replaced: encoding/json's
// MarshalIndent over the trace, each decision through Decision.MarshalJSON.
// Encode must write its bytes exactly (TestEncodeMatchesReference,
// FuzzDecodeTrace).
func referenceEncode(t *Trace) ([]byte, error) {
	out := *t
	out.Version = TraceVersion
	return json.MarshalIndent(&out, "", " ")
}

// codecTest is the trace codec's workload: rounds rounds of schedules over
// three machines, a bool, an int, an unreliable send and a racing timer,
// then a crash point, ending in a seeded violation — so the first
// execution's trace is an engine-recorded one whose decisions carry every
// member ("m", "b", "v" and "n") and whose logged replay writes send,
// dequeued and received lines on every round.
func codecTest(rounds int) Test {
	return Test{
		Name:   "trace-codec",
		Faults: Faults{MaxCrashes: 1, MaxDrops: 1, MaxDuplicates: rounds},
		Entry: func(ctx *Context) {
			sink := ctx.CreateMachine(&counterSink{}, "sink")
			echo := ctx.CreateMachine(&counterSink{}, "echo")
			tid := ctx.StartTimer("T", sink, Signal("ping"))
			for i := 0; i < rounds; i++ {
				ctx.RandomBool()
				ctx.RandomInt(5)
				ctx.SendUnreliable(sink, Signal("ping"))
				ctx.Send(echo, Signal("ping"))
			}
			ctx.CrashPoint(echo)
			ctx.StopTimer(tid)
			ctx.Assert(false, "end of the codec script")
		},
	}
}

// codecTrace records codecTest(rounds)'s first execution.
func codecTrace(tb testing.TB, rounds int) *Trace {
	tb.Helper()
	res := MustExplore(codecTest(rounds), Options{Scheduler: "random", Iterations: 1, MaxSteps: 100000, Seed: 5, NoReplayLog: true})
	if !res.BugFound {
		tb.Fatal("setup: the codec script's violation was not reported")
	}
	return res.Report.Trace
}

// escapesTrace holds every kind of decision, one carrying fields its kind
// does not, under names that need every kind of JSON escape.
func escapesTrace() *Trace {
	return newTrace("q\"\\/\b\f\n\r\t\x00\x1f<>&  é\xff\x7f", "sé", 1<<62, Faults{MaxDrops: 1}, []Decision{
		{Kind: DecisionSchedule, Machine: 3},
		{Kind: DecisionBool, Bool: true},
		{Kind: DecisionInt, Int: -2, N: 1 << 40},
		{Kind: DecisionTimer, Machine: 5, Bool: true},
		{Kind: DecisionCrash, Machine: NoMachine, N: 4},
		{Kind: DecisionDeliver, Machine: 7, Int: int(Duplicate), N: 3},
		{Kind: DecisionPersist, Machine: 4, Int: 2, N: 3},
		// Fields a kind does not carry are not written.
		{Kind: DecisionBool, Machine: 9, Int: 4, N: 5},
	})
}

// TestEncodeMatchesReference holds Encode to referenceEncode's bytes on
// recorded traces and on hand-built ones: every kind, the nil, empty and
// fault-budget forms, and names that need escaping.
func TestEncodeMatchesReference(t *testing.T) {
	traces := map[string]*Trace{
		"recorded":   codecTrace(t, 40),
		"fixture":    MustExplore(fixtureTest(), Options{Scheduler: "random", Iterations: 100, Seed: 1, NoReplayLog: true}).Report.Trace,
		"nil":        {Test: "x", Scheduler: "random"},
		"empty":      {Test: "x", Scheduler: "random", Decisions: []Decision{}},
		"all-faults": newTrace("x", "pct", -3, Faults{MaxCrashes: 1, MaxDrops: 2, MaxDuplicates: 3, MaxTornCrashes: 4}, nil),
		"escapes":    escapesTrace(),
	}
	for name, tr := range traces {
		got, err := tr.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := referenceEncode(tr)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Encode differs from encoding/json:\n got %q\nwant %q", name, got, want)
		}
	}
	if _, err := (&Trace{Decisions: []Decision{{Kind: 'z'}}}).Encode(); err == nil {
		t.Error("Encode accepted a decision of no kind")
	}
}

// TestTraceCodecAllocBudget keeps reflection and per-line formatting out of
// the trace path: Encode allocates a constant handful whatever the trace's
// length, DecodeTrace's allocations do not grow with its decision count, and
// a logged replay's log costs a few allocations — amortized buffer growth
// and the report's two — not some per line. Measured on recorded traces of
// about 100 and 2 000 decisions; skipped under -race.
func TestTraceCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the test's behalf")
	}
	rounds := [2]int{10, 200}
	short, long := codecTrace(t, rounds[0]), codecTrace(t, rounds[1])
	if n, m := len(short.Decisions), len(long.Decisions); n < 80 || n > 200 || m < 1500 {
		t.Fatalf("setup: traces of %d and %d decisions, want about 100 and 2000", n, m)
	}
	var data [2][]byte
	for i, tr := range []*Trace{short, long} {
		if allocs := testing.AllocsPerRun(10, func() { data[i], _ = tr.Encode() }); allocs > 2 {
			t.Errorf("Encode of %d decisions: %.0f allocations, budget 2", len(tr.Decisions), allocs)
		}
	}
	decodes := [2]float64{}
	for i := range data {
		decodes[i] = testing.AllocsPerRun(10, func() {
			if _, err := DecodeTrace(data[i]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if decodes[1] > decodes[0] {
		t.Errorf("DecodeTrace: %.0f allocations for %d decisions, %.0f for %d: they grow with the trace",
			decodes[0], len(short.Decisions), decodes[1], len(long.Decisions))
	}
	var logged [2]float64
	var lines [2]int
	for i, tr := range []*Trace{short, long} {
		test := codecTest(rounds[i])
		replay := func(collect bool) float64 {
			return testing.AllocsPerRun(5, func() {
				cfg := Options{MaxSteps: 100000}.runtimeConfig(test, collect)
				cfg.faults = tr.Faults
				r := newRuntime(newReplayScheduler(tr), cfg)
				rep := r.execute(test)
				if rep == nil {
					t.Fatal("replay lost the violation")
				}
				if collect {
					lines[i] = len(r.logLines())
				}
			})
		}
		logged[i] = replay(true) - replay(false)
	}
	// The log's two buffers grow by doubling, so 20 times the lines take
	// about log2(20) more growths each; a per-line cost would take
	// thousands.
	if growths := 2 * (bits.Len(uint(lines[1]/max(lines[0], 1))) + 1); logged[1]-logged[0] > float64(growths) {
		t.Errorf("the replay log costs %.0f allocations for %d lines and %.0f for %d: it grows with the lines",
			logged[0], lines[0], logged[1], lines[1])
	}
	t.Logf("Encode %v/%v decisions; DecodeTrace %.0f and %.0f allocations; log %.0f allocations for %d lines, %.0f for %d",
		len(short.Decisions), len(long.Decisions), decodes[0], decodes[1], logged[0], lines[0], logged[1], lines[1])
}

// BenchmarkTraceCodec measures the trace path a found bug takes, on one
// recorded trace of about 2 000 decisions: Encode, DecodeTrace and a logged
// Replay. Invariant: encode makes at most 2 allocs/op and decode a few
// dozen, whatever the trace's length; the replay's allocs/op are the
// execution's own plus a few for the log, not one per log line
// (TestTraceCodecAllocBudget gates all three).
func BenchmarkTraceCodec(b *testing.B) {
	test := codecTest(200)
	tr := codecTrace(b, 200)
	data, err := tr.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := tr.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := DecodeTrace(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if rep, err := Replay(test, tr, Options{MaxSteps: 100000}); err != nil || rep == nil {
				b.Fatalf("replay: %v, %v", rep, err)
			}
		}
	})
}
