package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/cmd/internal/runflags"
	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/dist"
)

// distBinaries compiles gostormd and gostorm-agent once per test binary.
// Running the artifacts directly preserves the real exit codes.
var distBinaries = struct {
	once  sync.Once
	dir   string
	coord string
	agent string
	err   error
}{}

func buildBinaries(t *testing.T) (coord, agent string) {
	t.Helper()
	b := &distBinaries
	b.once.Do(func() {
		dir, err := os.MkdirTemp("", "gostormd-cli")
		if err != nil {
			b.err = err
			return
		}
		b.dir = dir
		b.coord = filepath.Join(dir, "gostormd")
		b.agent = filepath.Join(dir, "gostorm-agent")
		if out, err := exec.Command("go", "build", "-o", b.coord, ".").CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build gostormd: %v\n%s", err, out)
			return
		}
		if out, err := exec.Command("go", "build", "-o", b.agent, "../gostorm-agent").CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go build gostorm-agent: %v\n%s", err, out)
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.coord, b.agent
}

var listenRE = regexp.MustCompile(`on (http://[^\s]+)`)

// startGostormd starts the coordinator on an ephemeral port and returns the
// process, the address its banner carries, and its output, complete once
// drained closes. The process is killed when the test ends.
func startGostormd(t *testing.T, bin string, args ...string) (coord *exec.Cmd, url string, out *bytes.Buffer, drained chan struct{}) {
	t.Helper()
	coord = exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = coord.Stdout
	if err := coord.Start(); err != nil {
		t.Fatalf("starting gostormd: %v", err)
	}
	t.Cleanup(func() { coord.Process.Kill() })

	out = new(bytes.Buffer)
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		out.WriteString(line + "\n")
		if m := listenRE.FindStringSubmatch(line); m != nil {
			url = m[1]
			break
		}
	}
	if url == "" {
		t.Fatalf("gostormd printed no listen address:\n%s", out.String())
	}
	// Keep draining so the pipe never blocks the coordinator.
	drained = make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
		}
	}()
	return coord, url, out, drained
}

// TestDistributedSmoke runs the real control plane end to end: gostormd
// plus two gostorm-agent processes shard a buggy scenario on localhost,
// and the fleet's winner must be byte-identical to a single-process
// Explore of the same plan. The in-process twin, with an agent killed
// mid-lease, is internal/dist's TestChaosDeterministicAttribution; the
// by-hand sharding surface is cmd/systest's TestCLIShard.
func TestDistributedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binaries")
	}
	coordBin, agentBin := buildBinaries(t)

	// The in-process reference the fleet must reproduce bit-for-bit.
	entry, err := catalog.Get("wal-torn-tail")
	if err != nil {
		t.Fatal(err)
	}
	opts := entry.Options
	opts.Scheduler = "random"
	opts.Seed = 1
	opts.Iterations = 400
	opts.NoReplayLog = true
	ref := core.MustExplore(entry.Build(), opts)
	if !ref.BugFound {
		t.Fatal("reference run found no bug")
	}
	wantTrace, err := ref.Report.Trace.Encode()
	if err != nil {
		t.Fatal(err)
	}

	trace := filepath.Join(t.TempDir(), "winner.trace")
	coord, url, coordOut, drained := startGostormd(t, coordBin,
		"-test", "wal-torn-tail", "-scheduler", "random",
		"-seed", "1", "-iterations", "400",
		"-lease", "8", "-linger", "3s",
		"-trace-out", trace)

	agents := make([]*exec.Cmd, 2)
	agentOut := make([]bytes.Buffer, 2)
	for i := range agents {
		agents[i] = exec.Command(agentBin,
			"-coordinator", url, "-name", fmt.Sprintf("smoke-%d", i), "-workers", "2")
		agents[i].Stdout = &agentOut[i]
		agents[i].Stderr = &agentOut[i]
		if err := agents[i].Start(); err != nil {
			t.Fatalf("starting agent %d: %v", i, err)
		}
	}

	// Wait closes the output pipe, so it must not run before the drain has
	// read everything the coordinator wrote.
	coordErr := make(chan error, 1)
	go func() {
		<-drained
		coordErr <- coord.Wait()
	}()
	select {
	case err := <-coordErr:
		if code := exitCode(err); code != 1 {
			t.Fatalf("gostormd exit = %d, want 1 (bug found):\n%s", code, coordOut.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("gostormd did not finish:\n%s", coordOut.String())
	}
	for i, a := range agents {
		if err := a.Wait(); err != nil {
			t.Errorf("agent %d exit: %v\n%s", i, err, agentOut[i].String())
		}
	}

	out := coordOut.String()
	if !strings.Contains(out, fmt.Sprintf("iteration %d", ref.Report.Iteration)) {
		t.Fatalf("gostormd attribution does not match reference iteration %d:\n%s", ref.Report.Iteration, out)
	}
	if !strings.Contains(out, "trace written to") {
		t.Fatalf("gostormd did not write the trace:\n%s", out)
	}
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("reading winner trace: %v", err)
	}
	if !bytes.Equal(got, wantTrace) {
		t.Fatalf("fleet trace diverges from single-process run:\n got %s\nwant %s", got, wantTrace)
	}
}

// TestAllZeroFaultsSpecDisablesTheFaultPlane: -faults crashes=0 means on a
// fleet what it means to systest — no faults — and not "the scenario's own
// budget", which is what an unset Options.Faults says. The plan agents are
// handed must carry it.
func TestAllZeroFaultsSpecDisablesTheFaultPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	coordBin, _ := buildBinaries(t)
	_, url, _, _ := startGostormd(t, coordBin, "-test", "ExtentNodeLivenessViolation", "-faults", "crashes=0")
	jr := join(t, url)
	entry, err := catalog.Get(jr.Plan.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if got := jr.Plan.EffectiveFaults(entry.Build()); jr.Plan.Faults == nil || got != (core.Faults{}) {
		t.Fatalf("published plan has faults %v and runs %s under budget %v, want the fault plane off",
			jr.Plan.Faults, jr.Plan.Scenario, got)
	}
}

// join joins the coordinator at url as an agent would and returns the plan
// it publishes.
func join(t *testing.T, url string) dist.JoinResponse {
	t.Helper()
	body := fmt.Sprintf(`{"protocol":%d,"agent":"t"}`, dist.ProtocolVersion)
	resp, err := http.Post(url+"/v1/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer resp.Body.Close()
	var jr dist.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decoding the join response: %v", err)
	}
	return jr
}

// TestFleetPlanIsASystestPlan: a bug the fleet finds is reproduced by
// systest with the same flags, so the plan gostormd publishes must be the
// one systest resolves — every field that travels on the wire. Scheduler is
// compared only without a portfolio, which it does not take part in.
func TestFleetPlanIsASystestPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binary")
	}
	coordBin, _ := buildBinaries(t)
	for _, args := range [][]string{
		{"-test", "wal-torn-tail", "-seed", "7", "-iterations", "300", "-max-steps", "900"},
		{"-test", "vnext-repair-lossy", "-faults", "crashes=2,drops=3,dups=2"},
		{"-test", "wal-torn-tail", "-faults", "crashes=1,torn=1"},
		{"-test", "ExtentNodeLivenessViolation", "-faults", "crashes=0"},
		{"-test", "replsys-safety", "-portfolio", "random,pct"},
		{"-test", "replsys-safety", "-portfolio", "pct,delay"},
		{"-test", "mtable", "-scheduler", "delay"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("systest", flag.ContinueOnError)
			planFlags := runflags.Register(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			sc, opts, err := planFlags.Plan()
			if err != nil {
				t.Fatal(err)
			}
			want, err := gostorm.Resolve(sc.Test(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			total, err := gostorm.PlanSize(opts...)
			if err != nil {
				t.Fatal(err)
			}

			_, url, _, _ := startGostormd(t, coordBin, args...)
			got := join(t, url).Plan
			if got.Scenario != sc.Name || got.Total != total {
				t.Fatalf("fleet plans %s over %d positions, systest %s over %d", got.Scenario, got.Total, sc.Name, total)
			}
			if g, w := wireFields(t, got.Options), wireFields(t, want); !reflect.DeepEqual(g, w) {
				t.Fatalf("fleet plan differs from systest's:\n got %v\nwant %v", g, w)
			}
		})
	}
}

// wireFields is the wire form of a plan as a field map.
func wireFields(t *testing.T, o gostorm.Config) map[string]any {
	t.Helper()
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(o.Portfolio) > 0 {
		delete(m, "scheduler")
	}
	return m
}

// TestCoordinatorConfigErrors: the fleet binaries check their flags and
// plan before anything runs — gostormd before the control plane comes up,
// the agent before it joins and takes a lease. The plan flags' own table is
// runflags' TestPlanFlagsFailUpFront; some of them show the wiring here. A
// line the binary prints itself is the whole of its output; the flag
// package follows its own with the usage.
func TestCoordinatorConfigErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the real binaries")
	}
	coordBin, agentBin := buildBinaries(t)
	for _, tc := range []struct {
		name string
		bin  string
		args []string
		want string
	}{
		{"plan flag", coordBin, []string{"-test", "wal-torn-tail", "-iterations", "-5"}, "gostormd: -iterations: must be positive, got -5"},
		{"removed liveness threshold", coordBin, []string{"-test", "wal-torn-tail", "-temperature", "50"}, "flag provided but not defined: -temperature"},
		{"dfs scheduler", coordBin, []string{"-test", "wal-torn-tail", "-scheduler", "dfs"}, `gostormd: -scheduler: unknown scheduler "dfs" (known: delay, mutational, pct, random, rr)`},
		{"unknown portfolio member", coordBin, []string{"-test", "mtable", "-portfolio", "random,quantum"}, `gostormd: -portfolio: unknown scheduler "quantum" (known: delay, mutational, pct, random, rr)`},
		{"feedback scheduler", coordBin, []string{"-test", "wal-torn-tail", "-portfolio", "random,mutational"}, `gostormd: -portfolio: scheduler "mutational" splices the corpus the plan's earlier positions built and cannot explore a sub-range`},
		{"negative lease", coordBin, []string{"-test", "wal-torn-tail", "-lease", "-1"}, "gostormd: -lease: must be non-negative, got -1"},
		{"negative lease-ttl", coordBin, []string{"-test", "wal-torn-tail", "-lease-ttl", "-1s"}, "gostormd: -lease-ttl: must be non-negative, got -1s"},
		{"negative linger", coordBin, []string{"-test", "wal-torn-tail", "-linger", "-1s"}, "gostormd: -linger: must be non-negative, got -1s"},
		{"agent without coordinator", agentBin, []string{"-coordinator", ""}, "gostorm-agent: -coordinator: is required"},
		// An unreachable coordinator: a check that passed would fail on the
		// join instead, with exit 1.
		{"agent negative workers", agentBin, []string{"-coordinator", "http://127.0.0.1:1", "-workers", "-2"}, "gostorm-agent: -workers: must be non-negative, got -2"},
		{"agent negative poll", agentBin, []string{"-coordinator", "http://127.0.0.1:1", "-poll", "-1s"}, "gostorm-agent: -poll: must be non-negative, got -1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(tc.bin, tc.args...).CombinedOutput()
			if code := exitCode(err); code != 2 {
				t.Fatalf("exit = %d, want 2:\n%s", code, out)
			}
			got := strings.TrimSuffix(string(out), "\n")
			if !strings.HasPrefix(tc.want, "gostorm") {
				got, _, _ = strings.Cut(string(out), "\n")
			}
			if got != tc.want {
				t.Fatalf("output %q, want %q", out, tc.want)
			}
		})
	}
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}
