package harness_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/gostorm/gostorm"
)

// updateSchedules rewrites testdata/schedules.json from the current tree.
// A change to the model or the harness that claims to keep every schedule
// must leave the file alone; regenerate only with a change that means to
// move a scheduling point, and say so in its description.
var updateSchedules = flag.Bool("update-schedules", false, "rewrite testdata/schedules.json from this tree")

// huntCell pins one (Table 2 row, scheduler) cell of the MigratingTable
// hunt exactly as the repository benchmark's hunt-table2 workload runs it:
// the catalog scenario's own options, seed 1, budget 2000.
type huntCell struct {
	Row        string `json:"row"`
	Scheduler  string `json:"scheduler"`
	Found      bool   `json:"found"`
	Executions int    `json:"executions"`
	TotalSteps int64  `json:"totalSteps"`
	Choices    int    `json:"choices"`
	TraceSHA   string `json:"traceSHA256,omitempty"`
	Message    string `json:"message,omitempty"`
}

// cleanCell pins the canonical statistics of a clean run.
type cleanCell struct {
	Scenario   string `json:"scenario"`
	Scheduler  string `json:"scheduler"`
	Iterations int    `json:"iterations"`
	Executions int    `json:"executions"`
	TotalSteps int64  `json:"totalSteps"`
}

type scheduleGoldens struct {
	Hunt  []huntCell  `json:"hunt"`
	Clean []cleanCell `json:"clean"`
}

// mtableHuntRows are the MigratingTable rows of the hunt: the seven
// organic bugs on the default workload and the four custom test cases.
var mtableHuntRows = []string{
	"QueryAtomicFilterShadowing",
	"QueryStreamedLock",
	"QueryStreamedBackUpNewStream",
	"DeleteNoLeaveTombstonesEtag",
	"DeletePrimaryKey",
	"EnsurePartitionSwitchedFromPopulated",
	"TombstoneOutputETag",
	"QueryStreamedFilterShadowing-custom",
	"MigrateSkipPreferOld-custom",
	"MigrateSkipUseNewWithTombstones-custom",
	"InsertBehindMigrator-custom",
}

const (
	scheduleSeed = 1
	huntBudget   = 2000
)

func exploreScenario(t testing.TB, name string, extra ...gostorm.Option) gostorm.Result {
	t.Helper()
	sc, err := gostorm.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gostorm.Explore(sc.Test(), append(sc.Options(), extra...)...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// recordSchedules runs every pinned cell at the given worker count.
func recordSchedules(t *testing.T, workers int) scheduleGoldens {
	t.Helper()
	var g scheduleGoldens
	for _, row := range mtableHuntRows {
		for _, sched := range []string{"random", "pct"} {
			res := exploreScenario(t, row,
				gostorm.WithScheduler(sched), gostorm.WithWorkers(workers),
				gostorm.WithSeed(scheduleSeed), gostorm.WithIterations(huntBudget), gostorm.WithNoReplayLog())
			c := huntCell{
				Row: row, Scheduler: sched, Found: res.BugFound,
				Executions: res.Executions, TotalSteps: res.TotalSteps, Choices: res.Choices,
			}
			if res.BugFound {
				data, err := res.Report.Trace.Encode()
				if err != nil {
					t.Fatalf("%s/%s: encoding the trace: %v", row, sched, err)
				}
				sum := sha256.Sum256(data)
				c.TraceSHA, c.Message = hex.EncodeToString(sum[:]), res.Report.Message
			}
			g.Hunt = append(g.Hunt, c)
		}
	}
	for _, c := range []cleanCell{
		{Scenario: "mtable", Scheduler: "random", Iterations: 500},
		{Scenario: "mtable", Scheduler: "pct", Iterations: 500},
		{Scenario: "mtable-paced", Scheduler: "random", Iterations: 100},
		{Scenario: "mtable-crash", Scheduler: "random", Iterations: 100},
	} {
		res := exploreScenario(t, c.Scenario,
			gostorm.WithScheduler(c.Scheduler), gostorm.WithWorkers(workers),
			gostorm.WithSeed(scheduleSeed), gostorm.WithIterations(c.Iterations), gostorm.WithNoReplayLog())
		if res.BugFound {
			t.Fatalf("%s under %s diverged: %v", c.Scenario, c.Scheduler, res.Report.Error())
		}
		c.Executions, c.TotalSteps = res.Executions, res.TotalSteps
		g.Clean = append(g.Clean, c)
	}
	return g
}

// TestMTableSchedulesMatchGoldens is the byte-level pin of the heaviest
// harness in the repository: every MigratingTable cell of the Table 2 hunt
// must find its bug at the recorded execution with the recorded trace (or
// miss within the same budget after the same number of steps), and the
// clean scenarios must take the recorded number of steps — at one worker
// and at four (four only under the race detector). The goldens were recorded before the model's rows became
// immutable values and the stub protocol started recycling its records;
// that change, and any later one that claims not to move a scheduling
// point or a random draw, is held to them — so a moved point fails here,
// by name, and not as a drifted execs_to_verdict in the benchmark (the
// harness is two of its four workloads).
func TestMTableSchedulesMatchGoldens(t *testing.T) {
	path := filepath.Join("testdata", "schedules.json")
	if *updateSchedules {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recordSchedules(t, 1)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("goldens missing (record them with -update-schedules): %v", err)
	}
	var want scheduleGoldens
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	legs := []int{1, 4}
	if raceEnabled {
		legs = []int{4}
	}
	for _, workers := range legs {
		got := recordSchedules(t, workers)
		if len(got.Hunt) != len(want.Hunt) || len(got.Clean) != len(want.Clean) {
			t.Fatalf("workers=%d: %d hunt and %d clean cells, goldens hold %d and %d",
				workers, len(got.Hunt), len(got.Clean), len(want.Hunt), len(want.Clean))
		}
		for i := range want.Hunt {
			if got.Hunt[i] != want.Hunt[i] {
				t.Errorf("workers=%d: hunt cell moved\n got %+v\nwant %+v", workers, got.Hunt[i], want.Hunt[i])
			}
		}
		if !reflect.DeepEqual(got.Clean, want.Clean) {
			t.Errorf("workers=%d: clean statistics moved\n got %+v\nwant %+v", workers, got.Clean, want.Clean)
		}
	}
}

// TestMutationalBeatsRandomAndPCTOnTombstoneOutputETag holds the
// coverage-guided claim on a real harness: on TombstoneOutputETag — the
// rarest of the default-workload bugs, deep enough that the corpus is in
// active use before the bug lands — the mutational scheduler reaches the
// violation in fewer iterations than random and pct at the same seed and
// budget. Every number is deterministic, so all three are pinned. The
// margin is seed-dependent (the harness's event stream hashes novel almost
// every execution, so the coverage gradient is weak here); the
// workload-robust guided win across seeds is
// TestMutationalBeatsRandomOnStagedRatchet in internal/core.
func TestMutationalBeatsRandomAndPCTOnTombstoneOutputETag(t *testing.T) {
	firstBug := func(sched string) int {
		res := exploreScenario(t, "TombstoneOutputETag",
			gostorm.WithScheduler(sched), gostorm.WithSeed(2), gostorm.WithIterations(6000), gostorm.WithNoReplayLog())
		if !res.BugFound {
			t.Fatalf("%s did not find the seeded bug within the budget", sched)
		}
		return res.Report.Iteration
	}
	random, pct, mutational := firstBug("random"), firstBug("pct"), firstBug("mutational")
	if random != 874 || pct != 4014 || mutational != 197 {
		t.Errorf("first buggy iteration: random %d, pct %d, mutational %d; recorded 874, 4014, 197", random, pct, mutational)
	}
	if mutational >= random || mutational >= pct {
		t.Errorf("mutational (iteration %d) did not beat random (%d) and pct (%d)", mutational, random, pct)
	}
}
