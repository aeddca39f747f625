// Command table1 regenerates the paper's Table 1: the cost of environment
// modeling for each case study — system-under-test size, harness size, and
// the harness's machine/state/handler counts.
//
// Lines of code are counted from this repository's sources (non-test Go
// files, excluding blank lines); machine statistics come from each harness
// package's Metadata.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/fabric"
	"github.com/gostorm/gostorm/internal/mtable"
	mharness "github.com/gostorm/gostorm/internal/mtable/harness"
	vharness "github.com/gostorm/gostorm/internal/vnext/harness"
)

// row is one Table 1 line. System and harness sources are listed as paths
// (directories are walked; files counted individually).
type row struct {
	name    string
	system  []string
	harness []string
	bugs    int
	meta    []gostorm.MachineStats
}

// rows lists Table 1's case studies.
func rows() []row {
	return []row{
		{
			name:    "vNext Extent Manager",
			system:  []string{"internal/vnext/messages.go", "internal/vnext/extentcenter.go", "internal/vnext/extentmanager.go"},
			harness: []string{"internal/vnext/harness"},
			bugs:    1,
			meta:    vharness.Metadata(),
		},
		{
			name: "MigratingTable",
			system: []string{
				"internal/mtable/table.go", "internal/mtable/reftable.go", "internal/mtable/phase.go",
				"internal/mtable/bugs.go", "internal/mtable/migrating.go", "internal/mtable/stream.go",
				"internal/mtable/migrator.go", "internal/mtable/guard.go",
			},
			harness: []string{"internal/mtable/harness", "internal/mtable/history.go", "internal/mtable/lp.go"},
			bugs:    len(mtable.AllBugs()),
			meta:    mharness.Metadata(),
		},
		{
			name:    "Fabric User Service",
			system:  []string{"internal/fabric/counter.go", "internal/fabric/pipeline.go"},
			harness: []string{"internal/fabric/fabric.go", "internal/fabric/replica.go", "internal/fabric/scenario.go"},
			bugs:    2,
			meta:    fabric.Metadata(),
		},
	}
}

// machines returns the row's #M, #ST and #AH columns.
func (r row) machines() (machines, states, handlers int) {
	for _, m := range r.meta {
		machines++
		states += m.States + m.Transitions
		handlers += m.Handlers
	}
	return machines, states, handlers
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	fmt.Println("Table 1: statistics from modeling the environment of the three systems under test")
	fmt.Println("(LoC are non-blank lines of non-test Go code in this repository)")
	fmt.Println()
	fmt.Printf("%-24s | %13s %4s | %14s %4s %4s %4s\n", "System-under-test", "System #LoC", "#B", "Harness #LoC", "#M", "#ST", "#AH")
	for _, r := range rows() {
		sys, err := countLoC(*root, r.system)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		har, err := countLoC(*root, r.harness)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		machines, states, handlers := r.machines()
		fmt.Printf("%-24s | %13d %4d | %14d %4d %4d %4d\n", r.name, sys, r.bugs, har, machines, states, handlers)
	}
	fmt.Println()
	fmt.Println("#B: seeded bugs; #M: machine types; #ST: states + declared transitions; #AH: action handlers.")
	fmt.Println("The fabric row counts the user services (counter, pipeline) as the system and the")
	fmt.Println("reusable fabric model as the harness, matching the paper's framing in §5.")
}

// countLoC counts non-blank lines of non-test Go code at the given paths.
func countLoC(root string, paths []string) (int, error) {
	total := 0
	for _, p := range paths {
		base := filepath.Join(root, p)
		info, err := os.Stat(base)
		if err != nil {
			return 0, err
		}
		if !info.IsDir() {
			n, err := countFile(base)
			if err != nil {
				return 0, err
			}
			total += n
			continue
		}
		err = filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := countFile(path)
			if err != nil {
				return err
			}
			total += n
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

func countFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n, nil
}
