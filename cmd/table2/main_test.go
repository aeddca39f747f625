package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/mtable"
)

// table2Binary compiles the command once per test binary via the go
// tool (`go build`, the compile step `go run .` performs) and returns the
// path. Running the artifact directly — rather than through `go run` —
// preserves the CLI's real exit codes, which `go run` collapses to 1.
var table2Binary = struct {
	once sync.Once
	path string
	err  error
}{}

func buildTable2(t *testing.T) string {
	t.Helper()
	b := &table2Binary
	b.once.Do(func() {
		dir, err := os.MkdirTemp("", "table2-cli")
		if err != nil {
			b.err = err
			return
		}
		b.path = filepath.Join(dir, "table2")
		out, err := exec.Command("go", "build", "-o", b.path, ".").CombinedOutput()
		if err != nil {
			b.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.path
}

// runTable2 invokes the compiled CLI and returns stdout, stderr and the
// exit code.
func runTable2(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(buildTable2(t), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		return stdout.String(), stderr.String(), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return stdout.String(), stderr.String(), ee.ExitCode()
	}
	t.Fatalf("table2 failed to start: %v\n%s", err, stderr.String())
	return "", "", -1
}

// wallTime matches the Time(s) fields, the only bytes of the table that
// are not a function of the flags.
var wallTime = regexp.MustCompile(`[0-9]+\.[0-9]{2}`)

// TestCLIMatchesGolden holds the whole table — BF?, #NDC, the faults
// column, the (c) and * markers, the portfolio winner of every row — to
// testdata/table2_seed1_300.golden, wall times masked. The file was
// recorded while table2 still built its harnesses by hand; a change to how
// the rows are produced must reproduce it, not regenerate it. Row 1 alone
// was re-recorded when the runtime took over pct's and delay's fair tail:
// its random column kept its count, pct's and the portfolio's moved.
func TestCLIMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "table2_seed1_300.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runTable2(t, "-iterations", "300", "-seed", "1", "-workers", "1", "-portfolio", "random,pct,delay")
	if code != 0 {
		t.Fatalf("exit = %d:\n%s%s", code, out, errOut)
	}
	if got := wallTime.ReplaceAllString(out, "T"); got != string(want) {
		t.Fatalf("table differs from the golden\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestRowsCoverEverySeededBug: the table is the vNext row plus every bug
// mtable seeds, each exactly once, so a newly seeded bug cannot be left off
// it silently; and every row names a registered scenario, so a deleted
// catalog entry fails here under -short, not only in the golden run.
func TestRowsCoverEverySeededBug(t *testing.T) {
	var got []string
	for _, r := range rows {
		if _, err := gostorm.ScenarioByName(r.scenario); err != nil {
			t.Errorf("row %q: %v", r.scenario, err)
		}
		got = append(got, strings.TrimSuffix(r.scenario, "-custom"))
	}
	want := append([]string{"ExtentNodeLivenessViolation"}, mtable.AllBugs()...)
	if !slices.Equal(got, want) {
		t.Fatalf("table rows = %q\nwant the vNext row and mtable.AllBugs(): %q", got, want)
	}
}

// TestCLIOmitsPortfolioColumn: an empty -portfolio drops the third
// column, matching the documented flag semantics.
func TestCLIOmitsPortfolioColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	out, errOut, code := runTable2(t, "-iterations", "20", "-seed", "1", "-portfolio", "")
	if code != 0 {
		t.Fatalf("exit = %d:\n%s%s", code, out, errOut)
	}
	// The fixed header sentence still mentions portfolios; the column
	// itself is identified by its "winner" header and member list.
	if strings.Contains(out, "winner") || strings.Contains(out, "portfolio random") {
		t.Fatalf("portfolio column rendered despite -portfolio \"\":\n%s", out)
	}
}

// TestCLIValidatesFlags: a bad flag fails up front with exit code 2 and a
// pointed message, like the other CLIs — before the first byte of the
// table, so a failed run leaves no half-written header behind.
func TestCLIValidatesFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-portfolio", "random,quantum"}, `table2: -portfolio: unknown scheduler "quantum" (known: delay, mutational, pct, random, rr)`},
		{[]string{"-workers", "-4"}, "table2: -workers: must be positive, got -4"},
		{[]string{"-iterations", "0"}, "table2: -iterations: must be positive, got 0"},
	} {
		out, errOut, code := runTable2(t, tc.args...)
		if code != 2 || errOut != tc.want+"\n" {
			t.Errorf("%v: exit = %d, want 2 and stderr %q, got:\n%s", tc.args, code, tc.want, errOut)
		}
		if out != "" {
			t.Errorf("%v: wrote to stdout before failing:\n%s", tc.args, out)
		}
	}
}
