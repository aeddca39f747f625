package core_test

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// minDFSSeededFound is the number of seeded-bug entries the enumeration
// finds at seed 1 within TestCatalogUnderDFS's budget, measured:
// fabric-pipeline-crash and fabric-promotion-bug. It keeps the round-trip
// check from passing vacuously. Raise it when a change finds more.
const minDFSSeededFound = 2

// dfsOutcome is what both runs of a catalog entry under the oracle must
// agree on. The trace is compared field by field.
type dfsOutcome struct {
	bugFound   bool
	exhausted  bool
	executions int
	totalSteps int64
	choices    int
	trace      *core.Trace
}

// TestCatalogUnderDFS holds every catalog entry, run through the
// enumeration oracle at seed 1 with the catalog contract's budget (20
// leaves, 6 for an entry whose executions may run to 20 000 steps, never
// more than the entry recommends), to the contract's guarantees:
//
//   - determinism: a pooled run and an unpooled (NoReuse) run agree
//     on the statistics and the trace;
//   - the verdict: a Clean entry reports nothing;
//   - replay: every report round-trips Encode → DecodeTrace → Replay to
//     the same kind and first message line, and none is a panic in the
//     harness wiring;
//   - confirmation: a report's confirmation replay reproduced.
func TestCatalogUnderDFS(t *testing.T) {
	entries := catalog.All()
	var ran, found atomic.Int64
	t.Cleanup(func() {
		if ran.Load() != int64(len(entries)) {
			return // a -run filter left entries out; the total is partial
		}
		if n := found.Load(); n < minDFSSeededFound {
			t.Errorf("%d seeded-bug entries found, want at least %d", n, minDFSSeededFound)
		}
	})
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			ran.Add(1)
			o := e.Options
			budget := 20
			if o.MaxSteps >= 20000 {
				budget = 6
			}
			if n := o.Iterations; n > 0 && n < budget {
				budget = n
			}
			o.Seed, o.Iterations = 1, budget

			pooled := o
			pooled.NoReplayLog = true
			res, exhausted := core.ExploreDFS(e.Build(), pooled)
			want := dfsOutcomeOf(res, exhausted)
			unpooled := o
			unpooled.NoReuse = true
			res, exhausted = core.ExploreDFS(e.Build(), unpooled)
			if got := dfsOutcomeOf(res, exhausted); !reflect.DeepEqual(got, want) {
				t.Fatalf("unpooled run diverges from the pooled one:\n got %+v\nwant %+v", got, want)
			}
			if !res.BugFound {
				return
			}
			checkDFSReport(t, e.Build(), res.Report, o)
			if e.Expect != catalog.SeededBug {
				t.Fatalf("clean entry reported a bug: %s", res.Report.Error())
			}
			found.Add(1)
		})
	}
}

func dfsOutcomeOf(res core.Result, exhausted bool) dfsOutcome {
	out := dfsOutcome{res.BugFound, exhausted, res.Executions, res.TotalSteps, res.Choices, nil}
	if res.BugFound {
		out.trace = res.Report.Trace
	}
	return out
}

// checkDFSReport holds a report of the oracle to what every report owes: no
// panic in the harness wiring, a confirmation replay that reproduced, and a
// trace that round-trips through its encoding to the same violation.
func checkDFSReport(t *testing.T, test core.Test, rep *core.BugReport, o core.Options) {
	t.Helper()
	if strings.Contains(rep.Message, "panic in harness") {
		t.Fatalf("harness wiring panicked: %s", rep.Message)
	}
	if len(rep.Log) == 0 || strings.Contains(rep.Log[0], "is the system-under-test deterministic?") {
		t.Fatalf("confirmation replay did not reproduce: %q", rep.Log)
	}
	enc, err := rep.Trace.Encode()
	if err != nil {
		t.Fatalf("encoding the trace: %v", err)
	}
	tr, err := core.DecodeTrace(enc)
	if err != nil {
		t.Fatalf("decoding the trace: %v", err)
	}
	replayed, err := core.Replay(test, tr, o)
	if err != nil {
		t.Fatalf("trace did not replay: %v", err)
	}
	if replayed == nil {
		t.Fatalf("replay completed cleanly; recorded: %s", rep.Error())
	}
	first := func(s string) string { line, _, _ := strings.Cut(s, "\n"); return line }
	if replayed.Kind != rep.Kind || first(replayed.Message) != first(rep.Message) {
		t.Fatalf("replay reproduced a different violation:\nreplayed: %s\nrecorded: %s", replayed.Error(), rep.Error())
	}
}

// TestPromotionBugUnderDFSReportsItsAssertion: dfs's first branches keep
// picking the lowest machine, so an execution of fabric-promotion-bug can
// reach the step bound with the counter's progress monitor hot before the
// seeded promotion bug fires. The runtime's fair tail must turn that into
// the seeded safety assertion or into nothing, never into a liveness
// report.
func TestPromotionBugUnderDFSReportsItsAssertion(t *testing.T) {
	e, err := catalog.Get("fabric-promotion-bug")
	if err != nil {
		t.Fatal(err)
	}
	o := e.Options
	o.Seed, o.NoReplayLog = 0, true
	res, _ := core.ExploreDFS(e.Build(), o)
	if res.BugFound && (res.Report.Kind != core.SafetyBug ||
		!strings.Contains(res.Report.Message, "only a secondary can be promoted")) {
		t.Fatalf("dfs reported other than the seeded assertion: %s", res.Report.Error())
	}
}
