package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// systestBinary compiles the command once per test binary via the go
// tool (`go build`, the compile step `go run .` performs) and returns the
// path. Running the artifact directly — rather than through `go run` —
// preserves the CLI's real exit codes, which `go run` collapses to 1.
var systestBinary = struct {
	once sync.Once
	path string
	err  error
}{}

func buildSystest(t *testing.T) string {
	t.Helper()
	b := &systestBinary
	b.once.Do(func() {
		dir, err := os.MkdirTemp("", "systest-cli")
		if err != nil {
			b.err = err
			return
		}
		b.path = filepath.Join(dir, "systest")
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

// runSystest invokes the compiled CLI and returns combined output plus
// the exit code.
func runSystest(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(buildSystest(t), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("systest failed to start: %v\n%s", err, out)
	return "", -1
}

// TestCLISmoke drives the binary end to end: list scenarios, find a bug
// with a portfolio, write its trace, and replay it.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	out, code := runSystest(t, "-list")
	if code != 0 || !strings.Contains(out, "replsys") {
		t.Fatalf("-list failed (exit %d):\n%s", code, out)
	}

	trace := filepath.Join(t.TempDir(), "bug.trace")
	out, code = runSystest(t,
		"-test", "replsys-safety", "-portfolio", "random,pct,delay",
		"-seed", "1", "-iterations", "5000", "-workers", "4", "-trace-out", trace)
	if code != 1 {
		t.Fatalf("portfolio run exit = %d, want 1 (bug found):\n%s", code, out)
	}
	if !strings.Contains(out, "bug found by the") || !strings.Contains(out, "* member") {
		t.Fatalf("portfolio output lacks winner attribution:\n%s", out)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("trace not written: %v\n%s", err, out)
	}

	out, code = runSystest(t, "-test", "replsys-safety", "-replay", trace)
	if code != 0 || !strings.Contains(out, "replay reproduced:") {
		t.Fatalf("replay failed (exit %d):\n%s", code, out)
	}

	// A replay cut off by a lowered step bound stopped short of the trace: it
	// must say so and fail, not report a clean run.
	out, code = runSystest(t, "-test", "replsys-safety", "-replay", trace, "-max-steps", "5")
	if code != 1 || !strings.Contains(out, "replay diverged:") || !strings.Contains(out, "recorded decisions") {
		t.Fatalf("replay under -max-steps 5 exit = %d, want 1 with a divergence naming the unconsumed decisions:\n%s", code, out)
	}
}

// TestCLIFaultPlaneRoundTrip drives a fault-budgeted scenario end to end:
// the banner reports the scenario's declared crash budget, the buggy
// trace (which contains the new fault decision kinds) is written to disk,
// and -replay reproduces the violation from the file.
func TestCLIFaultPlaneRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	trace := filepath.Join(t.TempDir(), "fault.trace")
	out, code := runSystest(t,
		"-test", "ExtentNodeLivenessViolation",
		"-seed", "1", "-iterations", "2000", "-trace-out", trace)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (bug found):\n%s", code, out)
	}
	if !strings.Contains(out, "faults crashes=1") {
		t.Fatalf("banner does not report the scenario's crash budget:\n%s", out)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if !strings.Contains(string(data), `"version": 2`) {
		t.Fatalf("trace is not version 2:\n%.300s", data)
	}
	if !strings.Contains(string(data), `"k": "c"`) || !strings.Contains(string(data), `"k": "t"`) {
		t.Fatalf("trace lacks crash/timer decision kinds:\n%.300s", data)
	}
	out, code = runSystest(t, "-test", "ExtentNodeLivenessViolation", "-replay", trace)
	if code != 0 || !strings.Contains(out, "replay reproduced:") {
		t.Fatalf("fault-plane replay failed (exit %d):\n%s", code, out)
	}

	// An explicit override is visible in the banner too.
	out, code = runSystest(t,
		"-test", "vnext-repair", "-faults", "crashes=1,drops=2,dups=1",
		"-iterations", "5", "-seed", "3")
	if code != 0 {
		t.Fatalf("override run exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "faults crashes=1 drops=2 dups=1") {
		t.Fatalf("banner does not report the override:\n%s", out)
	}

	// A -faults spec replaces the scenario's declared budget wholesale,
	// torn crashes included.
	out, code = runSystest(t,
		"-test", "vnext-repair-lossy", "-faults", "crashes=2,drops=3,dups=2,torn=1",
		"-iterations", "5", "-seed", "3")
	if code != 0 {
		t.Fatalf("torn override run exit = %d:\n%s", code, out)
	}
	if !strings.Contains(out, "faults crashes=2 drops=3 dups=2 torn=1") {
		t.Fatalf("banner does not report the torn override:\n%s", out)
	}

	// An explicit all-zero budget disables the scenario's declared
	// faults: the liveness scenario cannot fail without its crash, and
	// the banner reports the disabled plane.
	out, code = runSystest(t,
		"-test", "ExtentNodeLivenessViolation", "-faults", "crashes=0",
		"-iterations", "50", "-seed", "1")
	if code != 0 {
		t.Fatalf("disabled-faults run exit = %d, want 0 (no crash, no bug):\n%s", code, out)
	}
	if !strings.Contains(out, "faults -") {
		t.Fatalf("banner does not report the disabled fault plane:\n%s", out)
	}
}

// TestCLIProfileFlags runs a short exploration with both profiling flags
// and checks the profile files materialize non-empty; a bad profile path
// must fail up front like any other flag error.
func TestCLIProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out, code := runSystest(t,
		"-test", "replsys-safety", "-scheduler", "random",
		"-seed", "1", "-iterations", "200", "-workers", "1",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 && code != 1 {
		t.Fatalf("profiled run exit = %d, want 0 or 1:\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v\n%s", err, out)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty\n%s", p, out)
		}
	}

	out, code = runSystest(t,
		"-test", "replsys-safety", "-iterations", "1",
		"-cpuprofile", filepath.Join(dir, "no/such/dir/cpu.pprof"))
	if code != 2 || !strings.Contains(out, "-cpuprofile") {
		t.Fatalf("bad -cpuprofile path: exit = %d, want 2 with flag error:\n%s", code, out)
	}
}

// TestCLIValidatesFlagsUpFront: bad flags fail immediately with one pointed
// line and exit code 2, never as an engine panic mid-run. The plan flags'
// whole table is runflags' TestPlanFlagsFailUpFront; here some of them show
// the wiring, next to the machine-local -workers. A line systest prints
// itself is the whole of its output; the flag package follows its own with
// the usage.
func TestCLIValidatesFlagsUpFront(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"portfolio is not a scheduler", []string{"-test", "replsys", "-scheduler", "portfolio"}, `systest: -scheduler: unknown scheduler "portfolio" (known: delay, mutational, pct, random, rr)`},
		{"unknown portfolio member", []string{"-test", "mtable", "-portfolio", "random,quantum"}, `systest: -portfolio: unknown scheduler "quantum" (known: delay, mutational, pct, random, rr)`},
		{"negative workers", []string{"-test", "wal-fixed", "-workers", "-2"}, "systest: -workers: must be positive, got -2"},
		{"removed liveness threshold", []string{"-test", "wal-fixed", "-temperature", "50"}, "flag provided but not defined: -temperature"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, code := runSystest(t, c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2:\n%s", code, out)
			}
			got := strings.TrimSuffix(out, "\n")
			if !strings.HasPrefix(c.want, "systest: ") {
				got, _, _ = strings.Cut(out, "\n")
			}
			if got != c.want {
				t.Fatalf("output %q, want %q", out, c.want)
			}
		})
	}
}

// TestCLIShard drives -shard end to end: the shard owning the winning
// position must report the identical trace a full run reports, and that
// trace must replay bit-identically in a fresh process.
func TestCLIShard(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	full := filepath.Join(t.TempDir(), "full.trace")
	out, code := runSystest(t,
		"-test", "wal-torn-tail", "-scheduler", "random",
		"-seed", "1", "-iterations", "400", "-trace-out", full)
	if code != 1 {
		t.Fatalf("full run exit = %d, want 1:\n%s", code, out)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// The union of the shards reproduces the winner: the first shard (in
	// position order) that reports a bug holds the lowest global position,
	// and its trace must be byte-identical to the full run's.
	const n = 4
	winner := ""
	for i := 0; i < n; i++ {
		trace := filepath.Join(t.TempDir(), fmt.Sprintf("shard%d.trace", i))
		out, code := runSystest(t,
			"-test", "wal-torn-tail", "-scheduler", "random",
			"-seed", "1", "-iterations", "400",
			"-shard", fmt.Sprintf("%d/%d", i, n), "-trace-out", trace)
		if !strings.Contains(out, fmt.Sprintf("shard %d/%d", i, n)) {
			t.Fatalf("banner does not name the shard:\n%s", out)
		}
		switch code {
		case 0:
			continue
		case 1:
			if winner == "" {
				winner = trace
			}
		default:
			t.Fatalf("shard %d/%d exit = %d:\n%s", i, n, code, out)
		}
	}
	if winner == "" {
		t.Fatal("no shard found the bug the full run found")
	}
	got, err := os.ReadFile(winner)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("winning shard trace diverges from the full run:\n got %s\nwant %s", got, want)
	}

	// Fresh-process replay of the shard's trace reproduces the violation.
	out, code = runSystest(t, "-test", "wal-torn-tail", "-replay", winner)
	if code != 0 || !strings.Contains(out, "replay reproduced:") {
		t.Fatalf("replay failed (exit %d):\n%s", code, out)
	}
}

// TestCLIShardFlagValidation: the -shard pair fails fast on malformed
// specs, out-of-range indices, and conflicting modes.
func TestCLIShardFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-test", "wal-torn-tail", "-shard", "banana"}, "-shard must be i/n"},
		{[]string{"-test", "wal-torn-tail", "-shard", "0/4junk"}, "-shard must be i/n"},
		{[]string{"-test", "wal-torn-tail", "-shard", "1/2/8"}, "-shard must be i/n"},
		{[]string{"-test", "wal-torn-tail", "-shard", "1/4.5"}, "-shard must be i/n"},
		{[]string{"-test", "wal-torn-tail", "-shard", "3/3"}, "shard index must be in [0, 3)"},
		{[]string{"-test", "wal-torn-tail", "-shard", "-1/3"}, "shard index must be in [0, 3)"},
		{[]string{"-test", "wal-torn-tail", "-shard", "0/0"}, "shard count must be positive"},
		{[]string{"-test", "wal-torn-tail", "-shard", "0/2", "-replay", "x.trace"}, "conflicts with -replay"},
		{[]string{"-test", "wal-torn-tail", "-shard", "0/2", "-scheduler", "mutational"}, "cannot explore a sub-range"},
		{[]string{"-test", "wal-torn-tail", "-shard", "0/2", "-scheduler", "dfs"}, `unknown scheduler "dfs"`},
	} {
		out, code := runSystest(t, tc.args...)
		if code != 2 {
			t.Fatalf("%v exit = %d, want 2:\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v output %q does not mention %q", tc.args, out, tc.want)
		}
	}
}
