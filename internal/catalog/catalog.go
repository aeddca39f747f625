// Package catalog registers every systematic test in the repository under
// a stable name, so the command-line tools, examples and benchmarks share
// one source of truth for building scenarios.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/fabric"
	"github.com/gostorm/gostorm/internal/mtable"
	mharness "github.com/gostorm/gostorm/internal/mtable/harness"
	"github.com/gostorm/gostorm/internal/replsys"
	"github.com/gostorm/gostorm/internal/vnext"
	vharness "github.com/gostorm/gostorm/internal/vnext/harness"
	"github.com/gostorm/gostorm/internal/wal"
)

// Verdict is what exploring an entry under a fair scheduler concludes.
type Verdict string

const (
	// Clean: no schedule violates the entry's monitors.
	Clean Verdict = "clean"
	// SeededBug: the system under test carries a seeded bug.
	SeededBug Verdict = "seeded bug"
)

// Entry is one registered scenario.
type Entry struct {
	Name string
	// About is a one-line description shown by `systest -list`; All
	// appends "(expected clean)" to a clean entry's.
	About string
	// Expect is the entry's verdict, stated here and nowhere else.
	Expect Verdict
	// Build constructs the systematic test.
	Build func() core.Test
	// Options are recommended engine options (callers may override).
	Options core.Options
}

// Get returns the named entry. An Entry is a value — no entry's Options
// holds a slice or a pointer (TestGetHandsOutCopies) — so the caller may
// change what it gets.
func Get(name string) (Entry, error) {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Name >= name })
	if i < len(entries) && entries[i].Name == name {
		return entries[i], nil
	}
	return Entry{}, fmt.Errorf("catalog: unknown scenario %q (use -list)", name)
}

// All returns every registered scenario, sorted by name, in a slice the
// caller owns.
func All() []Entry { return slices.Clone(entries) }

// entries is the catalog, sorted by name, built once: Get looks one entry
// up instead of building all of them, and All copies the table.
var entries = build()

func build() []Entry {
	entries := []Entry{
		{
			Name:    "replsys",
			About:   "§2 example replication system with both seeded bugs and both monitors",
			Expect:  SeededBug,
			Build:   func() core.Test { return replsys.Scenario(replsys.ScenarioConfig{}) },
			Options: core.Options{MaxSteps: 3000},
		},
		{
			Name:   "replsys-safety",
			About:  "§2 example, safety monitor only (duplicate replica counting bug)",
			Expect: SeededBug,
			Build: func() core.Test {
				return replsys.Scenario(replsys.ScenarioConfig{Monitors: replsys.WithSafety})
			},
			Options: core.Options{MaxSteps: 2000},
		},
		{
			Name:   "replsys-liveness",
			About:  "§2 example, liveness monitor only (counter never reset bug)",
			Expect: SeededBug,
			Build: func() core.Test {
				return replsys.Scenario(replsys.ScenarioConfig{Monitors: replsys.WithLiveness})
			},
			Options: core.Options{MaxSteps: 3000, Iterations: 100},
		},
		{
			Name:   "replsys-fixed",
			About:  "§2 example with both fixes applied",
			Expect: Clean,
			Build: func() core.Test {
				return replsys.Scenario(replsys.ScenarioConfig{
					Server: replsys.Config{FixUniqueReplicas: true, FixCounterReset: true},
				})
			},
			Options: core.Options{MaxSteps: 8000, Iterations: 100},
		},
		{
			Name:   "replsys-durable",
			About:  "§2 example, fixed, with write-ahead durable storage nodes under crash injection",
			Expect: Clean,
			Build: func() core.Test {
				return replsys.Scenario(replsys.ScenarioConfig{
					Server:       replsys.Config{FixUniqueReplicas: true, FixCounterReset: true},
					Monitors:     replsys.WithSafety,
					DurableNodes: true,
				})
			},
			Options: core.Options{MaxSteps: 3000, Iterations: 300},
		},
		{
			Name:   "vnext-repair",
			About:  "§3 extent repair scenario, fixed manager",
			Expect: Clean,
			Build: func() core.Test {
				return vharness.Test(vharness.HarnessConfig{
					Scenario: vharness.ScenarioFailAndRepair,
					Manager:  vnext.Config{IgnoreSyncFromUnknownNodes: true},
				})
			},
			Options: core.Options{MaxSteps: 5000, Iterations: 100},
		},
		{
			Name:   "vnext-replicate",
			About:  "§3 scenario 1: replicate a single extent to three extent nodes",
			Expect: Clean,
			Build: func() core.Test {
				return vharness.Test(vharness.HarnessConfig{
					Scenario: vharness.ScenarioReplicate,
					Manager:  vnext.Config{IgnoreSyncFromUnknownNodes: true},
				})
			},
			Options: core.Options{MaxSteps: 4000, Iterations: 100},
		},
		{
			Name:   "ExtentNodeLivenessViolation",
			About:  "§3.6 vNext liveness bug: stale sync report resurrects an expired EN's replicas",
			Expect: SeededBug,
			Build: func() core.Test {
				return vharness.Test(vharness.HarnessConfig{Scenario: vharness.ScenarioFailAndRepair})
			},
			// A liveness report comes at twice the bound: the repair must
			// finish within 3000 steps.
			Options: core.Options{MaxSteps: 1500},
		},
		{
			Name:    "mtable",
			About:   "§4 MigratingTable specification check, fixed system",
			Expect:  Clean,
			Build:   func() core.Test { return mharness.Test(mharness.HarnessConfig{}) },
			Options: core.Options{MaxSteps: 30000, Iterations: 300},
		},
		{
			Name:   "mtable-paced",
			About:  "§4 MigratingTable with the migrator gated by a fault-plane timer",
			Expect: Clean,
			Build: func() core.Test {
				return mharness.Test(mharness.HarnessConfig{TimerPacedMigrator: true})
			},
			// Random scheduler recommended: pct can starve everything but
			// the pacing timer to the step bound.
			Options: core.Options{MaxSteps: 30000, Iterations: 60},
		},
		{
			Name:   "mtable-crash",
			About:  "§4 MigratingTable, migrator completion durably checkpointed under crash injection",
			Expect: Clean,
			Build: func() core.Test {
				return mharness.Test(mharness.HarnessConfig{CrashMigrator: true})
			},
			Options: core.Options{MaxSteps: 30000, Iterations: 120},
		},
		{
			Name:   "vnext-repair-lossy",
			About:  "§3 fail-and-repair under budgeted message loss/duplication",
			Expect: Clean,
			Build: func() core.Test {
				return vharness.Test(vharness.HarnessConfig{
					Scenario:     vharness.ScenarioFailAndRepair,
					Manager:      vnext.Config{IgnoreSyncFromUnknownNodes: true},
					DropMessages: true,
				})
			},
			Options: core.Options{MaxSteps: 6000, Iterations: 100},
		},
		{
			Name:   "fabric-failover",
			About:  "§5 counter service on the fabric model, fixed",
			Expect: Clean,
			Build: func() core.Test {
				return fabric.FailoverScenario(fabric.FailoverConfig{FailPrimary: true})
			},
			Options: core.Options{MaxSteps: 20000, Iterations: 300},
		},
		{
			Name:   "fabric-promotion-bug",
			About:  "§5 bug: promotion of a replica already elected primary trips the model assertion",
			Expect: SeededBug,
			Build: func() core.Test {
				return fabric.FailoverScenario(fabric.FailoverConfig{
					Fabric:      fabric.Config{BugUncheckedPromotion: true},
					FailPrimary: true,
				})
			},
			Options: core.Options{MaxSteps: 20000},
		},
		{
			Name:    "fabric-pipeline",
			About:   "§5 CScale-analog pipeline, fixed",
			Expect:  Clean,
			Build:   func() core.Test { return fabric.PipelineScenario(fabric.PipelineConfig{}) },
			Options: core.Options{MaxSteps: 5000, Iterations: 300},
		},
		{
			Name:   "fabric-pipeline-crash",
			About:  "§5 CScale-analog NullReferenceException: data racing the open control message",
			Expect: SeededBug,
			Build: func() core.Test {
				return fabric.PipelineScenario(fabric.PipelineConfig{BugNilState: true})
			},
			Options: core.Options{MaxSteps: 5000},
		},
		{
			Name:    "wal-torn-tail",
			About:   "crash-consistency bug: WAL recovery trusts an un-synced torn tail",
			Expect:  SeededBug,
			Build:   func() core.Test { return wal.Scenario(wal.Config{}) },
			Options: core.Options{MaxSteps: 2000},
		},
		{
			Name:    "wal-fixed",
			About:   "WAL recovery truncating the torn tail",
			Expect:  Clean,
			Build:   func() core.Test { return wal.Scenario(wal.Config{FixTornTail: true}) },
			Options: core.Options{MaxSteps: 2000, Iterations: 400},
		},
	}
	// One entry per Table 2 MigratingTable bug, organic workload...
	for _, name := range mtable.AllBugs() {
		bug, _ := mtable.BugByName(name)
		entries = append(entries, Entry{
			Name:    name,
			About:   fmt.Sprintf("Table 2 MigratingTable bug %s (default workload)", name),
			Expect:  SeededBug,
			Build:   func() core.Test { return mharness.Test(mharness.HarnessConfig{Bugs: bug}) },
			Options: core.Options{MaxSteps: 30000},
		})
		// ...and, for a bug that has a script, a custom-input variant (the
		// paper's ◐ runs).
		if _, ok := mharness.CustomTest(bug); !ok {
			continue
		}
		entries = append(entries, Entry{
			Name:   name + "-custom",
			About:  fmt.Sprintf("Table 2 MigratingTable bug %s (custom test case)", name),
			Expect: SeededBug,
			Build: func() core.Test {
				test, _ := mharness.CustomTest(bug)
				return test
			},
			Options: core.Options{MaxSteps: 30000},
		})
	}
	for i := range entries {
		if entries[i].Expect == Clean {
			entries[i].About += " (expected clean)"
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries
}

// Describe renders the catalog as a listing.
func Describe() string {
	var sb strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&sb, "%-44s %s\n", e.Name, e.About)
	}
	return sb.String()
}
