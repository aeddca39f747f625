package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runDriver runs the driver in this process at -smoke sizes.
func runDriver(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	args = append([]string{"-smoke", "-out", t.TempDir()}, args...)
	code = run(args, time.Now(), &out, &errs)
	return code, out.String(), errs.String()
}

// result is the last line of the driver's output.
type result struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// checkOutput asserts that every metric in defs is printed exactly once
// with its unit, in the text and in the result line, and nothing else is.
func checkOutput(t *testing.T, stdout string, defs []metricDef) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	printed := map[string]int{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 0 || f[0] != "metric" {
			continue
		}
		if len(f) < 7 {
			t.Errorf("short metric line %q", l)
			continue
		}
		printed[f[1]+" "+f[3]]++
		for _, kv := range f[4:] {
			if k, v, ok := strings.Cut(kv, "="); !ok || v == "" || (k != "n" && k != "min" && k != "max") {
				t.Errorf("metric line %q: unexpected field %q", l, kv)
			}
		}
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not a valid name", d.name)
		}
		if n := printed[d.name+" "+d.unit]; n != 1 {
			t.Errorf("metric %s (%s) printed %d times, want once", d.name, d.unit, n)
		}
	}
	if len(printed) != len(defs) {
		t.Errorf("printed %d distinct metrics, declared %d: %v", len(printed), len(defs), printed)
	}

	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q is not the result object: %v", lines[len(lines)-1], err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
		t.Fatalf("result lacks correct/attempted/failed: %s", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("result metric %s: got %+v, want a value in %s", d.name, m, d.unit)
		}
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, stdout, stderr := runDriver(t, "-workload", w.name, "-seed", "2")
			if code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			res := checkOutput(t, stdout, endToEnd)
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", *res.Correct, *res.Attempted, *res.Failed)
			}
			if !strings.Contains(stdout, "\nfailed_ops 0\n") || !strings.Contains(stdout, "\nops ") {
				t.Errorf("ops / failed_ops lines missing:\n%s", stdout)
			}
			for name, m := range res.Metrics {
				if *m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, *m.Value)
				}
			}
		})
	}
}

// TestSmokeTrace covers both ways the hunt probe gets its sweep (from the
// workload's last segment, and by running one) and the counted fleet run.
func TestSmokeTrace(t *testing.T) {
	for _, name := range []string{"hunt-table2", "fleet-mtable"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var out, errs bytes.Buffer
			code := run([]string{"-smoke", "-out", dir, "-workload", name, "-trace", "1"}, time.Now(), &out, &errs)
			if code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
			}
			checkOutput(t, out.String(), perLayer)

			data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				Layers []layerTime `json:"layers"`
				Spans  []span      `json:"spans"`
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			inSegment := 0
			for i, s := range tf.Spans {
				if s.EndNs < s.StartNs || s.Parent >= i {
					t.Fatalf("span %d %+v: ends before it starts, or its parent is not an earlier span", i, s)
				}
				if s.Segment >= 0 && s.Parent >= 0 {
					inSegment++
				}
			}
			if inSegment == 0 {
				t.Error("no span was recorded inside a traced segment")
			}
			for _, l := range tf.Layers {
				if l.SelfNs < 0 || l.SelfNs > l.TotalNs {
					t.Errorf("layer %s: self time %d outside [0, total %d]", l.Name, l.SelfNs, l.TotalNs)
				}
			}
		})
	}
}

func TestInjectedFailureExitsNonZero(t *testing.T) {
	code, stdout, stderr := runDriver(t, "-workload", "short-wal", "-inject-failure")
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr:\n%s", code, stderr)
	}
	res := checkOutput(t, stdout, endToEnd)
	if *res.Correct || *res.Failed != 1 {
		t.Errorf("correct %v, failed %d; want false, 1", *res.Correct, *res.Failed)
	}
	if !strings.Contains(stdout, "\nfailed_ops 1\n") {
		t.Errorf("failed_ops line missing:\n%s", stdout)
	}
}

func TestBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "short-wal", "-trace", "2"},
		{"-workload", "short-wal", "-seconds", "0"},
		{"-workload", "short-wal", "extra"},
	} {
		if code, stdout, _ := runDriver(t, args...); code != 2 || stdout != "" {
			t.Errorf("%v: exit code %d and output %q, want 2 and none", args, code, stdout)
		}
	}
}

func TestSegmentWithDifferentWorkFails(t *testing.T) {
	b := &bench{}
	cold := segStats{execs: 10, steps: 100}
	checkSegment(b, 0, segStats{execs: 10, steps: 100}, cold)
	if b.failed != 0 {
		t.Fatalf("equal statistics failed: %v", b.failures)
	}
	checkSegment(b, 1, segStats{execs: 10, steps: 101}, cold)
	checkSegment(b, 2, segStats{execs: 9, steps: 100}, cold)
	if b.failed != 2 {
		t.Errorf("failed = %d, want 2", b.failed)
	}
}

func TestQuietTakesTheFastestRunOfEachPart(t *testing.T) {
	segs := []segStats{
		{parts: []time.Duration{5, 9, 3}},
		{parts: []time.Duration{6, 2, 3}},
		{parts: []time.Duration{4, 8, 7}},
	}
	if got := quiet(segs); got != 4+2+3 {
		t.Errorf("quiet = %d, want 9", got)
	}
	if got := segs[0].wall(); got != 17 {
		t.Errorf("wall = %d, want 17", got)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	got := selfTimes([]span{
		{Name: "parent", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "child", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "child", StartNs: 20, EndNs: 50, Parent: 0},
		{Name: "child", StartNs: 90, EndNs: 120, Parent: 0}, // outlives the parent
	})
	want := []layerTime{
		{Name: "child", Count: 3, TotalNs: 80, SelfNs: 80},
		{Name: "parent", Count: 1, TotalNs: 100, SelfNs: 50},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

// TestCommittedSegmentCounts pins how many segments the committed
// run_seconds buys: a new size is a new baseline, and must be deliberate.
func TestCommittedSegmentCounts(t *testing.T) {
	bm := readBenchmarkJSON(t)
	want := map[string]int{"steps-replsys": 72, "short-wal": 76, "hunt-table2": 5, "fleet-mtable": 20}
	for _, w := range workloads {
		if got := segments(config{seconds: bm.RunSeconds}, w); got != want[w.name] {
			t.Errorf("%s: %d segments at -seconds %d, want %d", w.name, got, bm.RunSeconds, want[w.name])
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)

	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(bm.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bm.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s (%s), the driver %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`BENCHMARK.json lacks setup_s with unit "s" and better "lower"`)
	}

	if len(bm.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d (at most 128)", len(bm.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bm.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s (%s), the driver %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	for _, d := range endToEnd {
		if seen[d.name] {
			t.Errorf("name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
	if len(seen) != len(perLayer)+len(endToEnd) {
		t.Error("a metric name is used twice")
	}

	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bm.RunSeconds)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths = %v", bm.Paths)
	}
}
