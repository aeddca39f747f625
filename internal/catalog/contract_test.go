// External test package: the contract drives the public gostorm surface —
// ScenarioByName, Explore, Replay — which imports the catalog, so an
// in-package test would close an import cycle (root → catalog).
package catalog_test

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/catalog"
)

// boundReports is the ledger of (clean entry, row) pairs that report a
// liveness bug at the step bound within the contract's budget although the
// runtime ends every execution that reaches the bound with a monitor hot in
// a fair tail. All are pct's (the portfolio's winner is its pct member) on
// entries whose calibration run reaches the bound, so the length estimate
// is the bound and pct's unfair prefix lasts the whole bound: long enough
// for a starved machine to queue hundreds of timer ticks or requests that
// a uniform tail of one more bound does not drain. Each pair is a false
// report. The ledger must match exactly, so the change that removes a
// report deletes its line here.
var boundReports = map[string]bool{
	"replsys-fixed/portfolio":      true,
	"vnext-repair/pct":             true,
	"vnext-repair/portfolio":       true,
	"vnext-repair-lossy/pct":       true,
	"vnext-repair-lossy/portfolio": true,
	"vnext-replicate/pct":          true,
	"vnext-replicate/portfolio":    true,
}

// minSeededFound is the number of seeded-bug rows the table finds at seed
// 1, measured; it keeps the round-trip and invariance checks from passing
// vacuously. Raise it when a change finds more.
const minSeededFound = 70

// column is one configuration every row runs in.
type column struct {
	workers int
	noReuse bool
}

// columns are the workers × pooling grid; under -short only the pooled
// pair runs. The w4 pooled column keeps the confirmation replay on.
var columns = []column{{1, false}, {4, false}, {1, true}, {4, true}}

// outcome is what a row must reproduce in every column. The trace is
// compared field by field, which is stricter than comparing its encoded
// bytes: Encode is a function of those fields.
type outcome struct {
	bugFound   bool
	executions int
	totalSteps int64
	choices    int
	winner     int
	trace      *gostorm.Trace
}

// TestCatalogContract states, once, every guarantee a catalog entry
// carries. Each entry runs under every registered scheduler and a
// random,pct,delay portfolio at seed 1, and each such row runs at 1 and 4
// workers, pooled and with WithNoReuse. The table holds:
//
//   - determinism: the statistics, the winner and the trace are the same
//     in every column (and so across re-executions);
//   - the verdict: a Clean entry reports nothing beyond the boundReports
//     ledger, whose pairs must report a liveness bug at the step bound;
//   - replay: every report round-trips Encode → DecodeTrace → Replay to
//     the same kind and first message line, and none is a panic in the
//     harness wiring;
//   - confirmation: a found row's confirmation replay reproduced;
//   - attribution: a portfolio winner is the scheduler its trace names;
//   - detection: random finds every SeededBug entry that declares a fault
//     budget within min(its budget, 3000), in every column, on a trace
//     holding a fault decision.
func TestCatalogContract(t *testing.T) {
	cols := columns
	if testing.Short() {
		cols = columns[:2]
	}
	rows := append(gostorm.SchedulerNames(), "portfolio")
	entries := catalog.All()
	var ran, found atomic.Int64
	var reported sync.Map
	t.Cleanup(func() {
		if ran.Load() != int64(len(entries)*len(rows)) {
			return // a -run filter left rows out; the totals are partial
		}
		for key := range boundReports {
			if _, ok := reported.Load(key); !ok {
				t.Errorf("%s no longer reports at the step bound: delete it from boundReports", key)
			}
		}
		if n := found.Load(); n < minSeededFound {
			t.Errorf("%d seeded-bug rows found, want at least %d", n, minSeededFound)
		}
	})
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			sc, err := gostorm.ScenarioByName(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				t.Run(row, func(t *testing.T) {
					ran.Add(1)
					opts := rowOptions(sc, e, row)
					res := runColumns(t, sc, opts, cols)
					if !res.BugFound {
						return
					}
					key := e.Name + "/" + row
					reported.Store(key, true)
					checkReport(t, sc, res, opts)
					switch {
					case e.Expect == catalog.SeededBug:
						found.Add(1)
					case !boundReports[key]:
						t.Errorf("clean entry reported a bug: %s", res.Report.Error())
					case res.Report.Kind != gostorm.LivenessBug ||
						!strings.Contains(res.Report.Message, "exceeded the step bound"):
						t.Errorf("ledger pair reported other than a liveness bug at the step bound: %s", res.Report.Error())
					}
				})
			}
			if e.Expect == catalog.SeededBug && sc.Test().Faults != (gostorm.Faults{}) {
				t.Run("detect", func(t *testing.T) { detect(t, sc, e, cols) })
			}
		})
	}
}

// rowOptions picks a row's strategy and budget: 20 iterations, 6 for an
// entry whose executions may run to 20 000 steps, and never more than the
// entry recommends.
func rowOptions(sc gostorm.Scenario, e catalog.Entry, row string) []gostorm.Option {
	budget := 20
	if e.Options.MaxSteps >= 20000 {
		budget = 6
	}
	if n := e.Options.Iterations; n > 0 && n < budget {
		budget = n
	}
	strategy := gostorm.WithScheduler(row)
	if row == "portfolio" {
		strategy = gostorm.WithPortfolio("random", "pct", "delay")
	}
	return options(sc, strategy, budget)
}

// options layers a strategy, seed 1 and a budget over the scenario's own
// options.
func options(sc gostorm.Scenario, strategy gostorm.Option, budget int) []gostorm.Option {
	return append(sc.Options(), strategy, gostorm.WithSeed(1), gostorm.WithIterations(budget))
}

// runColumns runs a row in every column, fails unless all agree, and
// returns the first column's result.
func runColumns(t *testing.T, sc gostorm.Scenario, opts []gostorm.Option, cols []column) gostorm.Result {
	t.Helper()
	var first gostorm.Result
	var want outcome
	for i, c := range cols {
		o := append(slices.Clone(opts), gostorm.WithWorkers(c.workers))
		if c.noReuse {
			o = append(o, gostorm.WithNoReuse())
		}
		confirm := c == column{4, false}
		if !confirm {
			o = append(o, gostorm.WithNoReplayLog())
		}
		res, err := gostorm.Explore(sc.Test(), o...)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		got := outcome{res.BugFound, res.Executions, res.TotalSteps, res.Choices, res.Winner, nil}
		if res.BugFound {
			got.trace = res.Report.Trace
		}
		if i == 0 {
			first, want = res, got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v diverges from %+v:\n got %+v\nwant %+v", c, cols[0], got, want)
		}
		if confirm && res.BugFound {
			checkConfirmation(t, res.Report)
		}
	}
	return first
}

// checkConfirmation holds the confirmation replay a run attaches to its
// report: a log, from a replay that reproduced the violation. A replay
// that failed or ended clean leaves one line asking whether the system
// under test is deterministic.
func checkConfirmation(t *testing.T, rep *gostorm.BugReport) {
	t.Helper()
	if len(rep.Log) == 0 {
		t.Fatal("confirmation replay attached no log")
	}
	if strings.Contains(rep.Log[0], "is the system-under-test deterministic?") {
		t.Fatalf("confirmation replay failed: %s", rep.Log[0])
	}
}

// checkReport holds a report to what every report owes: no panic in the
// harness wiring, a portfolio winner that is its trace's scheduler, and a
// trace that round-trips through its encoding to the same violation.
func checkReport(t *testing.T, sc gostorm.Scenario, res gostorm.Result, opts []gostorm.Option) {
	t.Helper()
	rep := res.Report
	if strings.Contains(rep.Message, "panic in harness") {
		t.Fatalf("harness wiring panicked: %s", rep.Message)
	}
	if res.Portfolio != nil {
		if got := res.Portfolio[res.Winner].Scheduler; got != rep.Trace.Scheduler {
			t.Fatalf("winner attribution: member %q, trace %q", got, rep.Trace.Scheduler)
		}
	}
	enc, err := rep.Trace.Encode()
	if err != nil {
		t.Fatalf("encoding the trace: %v", err)
	}
	tr, err := gostorm.DecodeTrace(enc)
	if err != nil {
		t.Fatalf("decoding the trace: %v", err)
	}
	replayed, err := gostorm.Replay(sc.Test(), tr, opts...)
	if err != nil {
		t.Fatalf("trace did not replay: %v", err)
	}
	if replayed == nil {
		t.Fatalf("replay completed cleanly; recorded: %s", rep.Error())
	}
	// A panic's message carries a stack dump whose goroutine IDs and
	// addresses vary run to run; the first line is the stable part.
	if replayed.Kind != rep.Kind || firstLine(replayed.Message) != firstLine(rep.Message) {
		t.Fatalf("replay reproduced a different violation:\nreplayed: %s\nrecorded: %s", replayed.Error(), rep.Error())
	}
}

// detect holds a fault-budgeted seeded bug to being found by random at
// seed 1 within min(the entry's budget, 3000), in every column, on a trace
// that records a fault decision.
func detect(t *testing.T, sc gostorm.Scenario, e catalog.Entry, cols []column) {
	budget := 3000
	if n := e.Options.Iterations; n > 0 && n < budget {
		budget = n
	}
	opts := options(sc, gostorm.WithScheduler("random"), budget)
	res := runColumns(t, sc, opts, cols)
	if !res.BugFound {
		t.Fatalf("seeded bug not found within %d executions", budget)
	}
	if !slices.ContainsFunc(res.Report.Trace.Decisions, func(d gostorm.Decision) bool {
		switch d.Kind {
		case gostorm.DecisionTimer, gostorm.DecisionCrash, gostorm.DecisionDeliver, gostorm.DecisionPersist:
			return true
		}
		return false
	}) {
		t.Fatal("the buggy trace records no fault decision")
	}
	checkReport(t, sc, res, opts)
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestScenarioOptionLayering: the public pattern the catalog recommends —
// scenario options first, caller overrides appended — produces a runnable
// portfolio with winner attribution.
func TestScenarioOptionLayering(t *testing.T) {
	sc, err := gostorm.ScenarioByName("replsys-safety")
	if err != nil {
		t.Fatal(err)
	}
	opts := append(sc.Options(),
		gostorm.WithPortfolio("random", "pct"),
		gostorm.WithSeed(1),
		gostorm.WithIterations(5000),
		gostorm.WithWorkers(4),
		gostorm.WithNoReplayLog(),
	)
	res, err := gostorm.Explore(sc.Test(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BugFound {
		t.Fatal("portfolio catalog run did not find the seeded safety bug")
	}
	if res.Winner < 0 || res.Portfolio[res.Winner].Scheduler == "" {
		t.Fatalf("winner not attributed: %+v", res)
	}
	if len(res.Portfolio) != 2 {
		t.Fatalf("members = %d, want the two overridden ones", len(res.Portfolio))
	}
}
