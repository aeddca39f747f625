// Command noise is the benchmark's noise check: it runs the command in
// BENCHMARK.json the way the judging driver does — every workload n times,
// each time with another seed, the workloads alternating — and reports,
// per workload and end-to-end metric, the medians of the two halves of the
// runs, how much worse the second is than the first, and the spread (the
// distance between the quartiles as a share of the median) against the
// metric's bound. Its output for -n 20 is committed as ../NOISE.md.
//
//	go run ./noise -n 20 > NOISE.md     # from bench/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	n := flag.Int("n", 10, "runs per workload (split into two halves)")
	root := flag.String("root", "..", "repository root, where BENCHMARK.json is and the command runs")
	seed := flag.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	flag.Parse()
	if err := run(*n, *root, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "noise:", err)
		os.Exit(1)
	}
}

func run(n int, root string, seed int64) error {
	if n < 4 {
		return fmt.Errorf("-n must be at least 4, got %d", n)
	}
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return err
	}
	var bm benchmark
	if err := json.Unmarshal(data, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	// values[workload][metric] holds one value per run, in run order.
	values := make(map[string]map[string][]float64)
	var slowest time.Duration
	for i := 0; i < n; i++ {
		for _, w := range bm.Workloads {
			args := append(append([]string(nil), bm.Command[1:]...),
				"--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.Itoa(bm.RunSeconds), "--trace", "0")
			cmd := exec.Command(bm.Command[0], args...)
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			t0 := time.Now()
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
			}
			slowest = max(slowest, time.Since(t0))
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d failed operations", w.Name, seed+int64(i), res.Failed)
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done in %.1fs\n", i+1, n, w.Name, time.Since(t0).Seconds())
		}
	}

	fmt.Printf("# Noise check: %d runs per workload, seeds %d..%d, %d s timed phase\n\n", n, seed, seed+int64(n)-1, bm.RunSeconds)
	fmt.Printf("Two halves of %d runs each, same code. `worse` is how much worse the second\n", n/2)
	fmt.Println("half's median is than the first's (negative = better); `spread` is the distance")
	fmt.Printf("between the quartiles of all %d values as a share of their median. Both must stay\n", n)
	fmt.Printf("within `bound`; the aim is a spread below a third of it. Slowest run: %.1f s.\n\n", slowest.Seconds())
	fmt.Println("| workload | metric | unit | median A | median B | worse | spread | bound | ok |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range bm.Workloads {
		for _, m := range bm.EndToEnd {
			vs := values[w.Name][m.Name]
			if len(vs) != n {
				return fmt.Errorf("%s: metric %s reported in %d of %d runs", w.Name, m.Name, len(vs), n)
			}
			a, b := median(vs[:n/2]), median(vs[n/2:])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / median(vs)
			ok := "yes"
			// setup_s is judged on its medians only.
			if worse > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
				ok = "NO"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, a, b, worse*100, spread*100, m.Bound*100, ok)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", bad)
	}
	return nil
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		i = min(max(i, 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}
