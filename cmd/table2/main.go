// Command table2 regenerates the paper's Table 2: for every seeded bug it
// runs the random and the priority-based (PCT) systematic-testing
// schedulers for a bounded number of executions and reports whether the
// bug was found (BF?), the time to the first buggy execution, and the
// number of nondeterministic choices (#NDC) in that execution. A third
// column races a scheduler portfolio (random+pct+delay by default) on the
// same budget and names the member that won — the paper's observation
// that no single strategy finds every bug, made operational.
//
// The paper ran 100,000 executions per cell; that remains available via
// -iterations 100000, while the default keeps a full table affordable.
// Rows marked (c) use the custom test case that pins the bug's rare
// triggering inputs, exactly as the paper's ◐ rows did.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/cmd/internal/runflags"
)

// rows are the table's lines in the paper's order, each a scenario of the
// catalog (`systest -list`): the scenario carries the harness, the step
// bound and the fault budget, and a "-custom" name is the custom test case
// of that bug.
var rows = []struct {
	cs       string
	scenario string
	star     bool // notional bug (the paper's ∗ rows)
}{
	{cs: "1", scenario: "ExtentNodeLivenessViolation"},
	{cs: "2", scenario: "QueryAtomicFilterShadowing"},
	{cs: "2", scenario: "QueryStreamedLock"},
	{cs: "2", scenario: "QueryStreamedBackUpNewStream"},
	{cs: "2", scenario: "DeleteNoLeaveTombstonesEtag"},
	{cs: "2", scenario: "DeletePrimaryKey"},
	{cs: "2", scenario: "EnsurePartitionSwitchedFromPopulated"},
	{cs: "2", scenario: "TombstoneOutputETag"},
	{cs: "2", scenario: "QueryStreamedFilterShadowing-custom"},
	{cs: "2", scenario: "MigrateSkipPreferOld-custom", star: true},
	{cs: "2", scenario: "MigrateSkipUseNewWithTombstones-custom", star: true},
	{cs: "2", scenario: "InsertBehindMigrator-custom", star: true},
}

func main() {
	var (
		iterations = flag.Int("iterations", 20000, "execution budget per cell (paper: 100000); per member for the portfolio column")
		seed       = flag.Int64("seed", 1, "base random seed")
		workers    = flag.Int("workers", 0, "parallel exploration workers per cell (0 = one per CPU)")
		portfolio  = flag.String("portfolio", "random,pct,delay", "comma-separated members of the portfolio column (empty = omit the column)")
	)
	flag.Parse()

	var members []string
	if *portfolio != "" {
		var err error
		if members, err = runflags.ParsePortfolioSpec(*portfolio); err != nil {
			fail(err)
		}
	}

	// What every cell shares, layered over each scenario's own options the
	// way systest layers its flags.
	shared := []gostorm.Option{gostorm.WithIterations(*iterations), gostorm.WithSeed(*seed), gostorm.WithNoReplayLog()}
	if *workers != 0 {
		shared = append(shared, gostorm.WithWorkers(*workers))
	}

	// Resolve every row, under the portfolio column's members too, before
	// the first byte of output: a bad flag fails here, not from inside the
	// first cell with the header already printed.
	lines := make([]line, len(rows))
	for i, r := range rows {
		sc, err := gostorm.ScenarioByName(r.scenario)
		if err != nil {
			fail(err)
		}
		// Clipped, so each column's append copies instead of sharing.
		opts := slices.Clip(append(sc.Options(), shared...))
		check := opts
		if members != nil {
			check = append(opts, gostorm.WithPortfolio(members...))
		}
		cfg, err := gostorm.Resolve(sc.Test(), check...)
		if err != nil {
			fail(err)
		}
		label, custom := strings.CutSuffix(r.scenario, "-custom")
		if r.star {
			label = "*" + label
		}
		if custom {
			label += " (c)"
		}
		lines[i] = line{cs: r.cs, label: label, faults: cfg.Faults.String(), sc: sc, opts: opts}
	}

	fmt.Printf("Table 2: random, priority-based and portfolio schedulers, up to %d executions per cell\n", *iterations)
	fmt.Println("(c) = custom test case pinning the triggering inputs; (*) = notional bug")
	fmt.Println("faults = the scenario's fault-plane budget (crashes/drops/dups per execution; - = none)")
	fmt.Println()
	fmt.Printf("%-2s %-38s %-10s | %-3s %12s %8s | %-3s %12s %8s", "CS", "Bug Identifier", "faults", "BF?", "Time(s)", "#NDC", "BF?", "Time(s)", "#NDC")
	if members != nil {
		fmt.Printf(" | %-3s %12s %8s %-8s", "BF?", "Time(s)", "#NDC", "winner")
	}
	fmt.Println()
	fmt.Printf("%-2s %-38s %-10s | %26s | %26s", "", "", "", "random scheduler", "priority-based scheduler")
	if members != nil {
		fmt.Printf(" | %35s", "portfolio "+strings.Join(members, "+"))
	}
	fmt.Println()
	for _, l := range lines {
		fmt.Printf("%-2s %-38s %-10s | %s | %s", l.cs, l.label, l.faults,
			l.cell(gostorm.WithScheduler("random")), l.cell(gostorm.WithScheduler("pct")))
		if members != nil {
			fmt.Printf(" | %s", l.cell(gostorm.WithPortfolio(members...)))
		}
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "table2:", runflags.Message(err))
	os.Exit(2)
}

// line is one row resolved: its three leading columns as printed, and the
// scenario and options every cell of the row runs.
type line struct {
	cs, label, faults string
	sc                gostorm.Scenario
	opts              []gostorm.Option
}

// cell runs the row under one column's scheduler or portfolio and formats
// it; a portfolio column also names the member that won. Cells explore in
// parallel; time-to-bug therefore reflects the machine's core count, while
// #NDC stays a property of the (deterministically chosen) buggy execution.
func (l line) cell(column gostorm.Option) string {
	res, err := gostorm.Explore(l.sc.Test(), append(l.opts, column)...)
	if err != nil {
		fail(err)
	}
	found, secs, ndc, winner := "no", "-", "-", "-"
	if res.BugFound {
		found, secs, ndc = "yes", fmt.Sprintf("%.2f", res.Elapsed.Seconds()), fmt.Sprint(res.Choices)
		if res.Portfolio != nil {
			winner = res.Portfolio[res.Winner].Scheduler
		}
	}
	out := fmt.Sprintf("%-3s %12s %8s", found, secs, ndc)
	if res.Portfolio != nil {
		out += fmt.Sprintf(" %-8s", winner)
	}
	return out
}
