// Command gostormbench is the repository's benchmark driver: it runs one
// of four fixed workloads in this process, checks the outputs, and prints
// every metric by name. BENCHMARK.json at the repository root declares the
// command, the workloads and the metrics; ../README.md explains the
// design.
//
//	go run ./gostormbench -workload steps-replsys            # end-to-end metrics
//	go run ./gostormbench -workload steps-replsys -trace 1   # per-layer metrics
//
// A run sets the workload up (build it, run one cold segment; this counts
// into setup_s), then runs timed segments of identical work; each timed
// metric is the segments' quiet time — the fastest run of each separately
// timed part. Nothing in the rest of the repository is instrumented: every
// number is a timing of calls into public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart is read before main and before any other package-level
// work in this package, so setup_s covers everything after runtime start.
var processStart = time.Now()

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke shrinks every size to a few milliseconds of work, for the tests.
	smoke bool
	// injectFailure records one failed operation, so the tests can see the
	// exit path of a wrong output.
	injectFailure bool
	// outDir receives trace-<workload>.json.
	outDir string
}

func main() {
	os.Exit(run(os.Args[1:], processStart, os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var (
		cfg   config
		trace int
	)
	fs := flag.NewFlagSet("gostormbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 16, "length of the timed phase; rounded to a whole number of fixed-size segments")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: record spans, run the layer probes, print the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes (what the tests run); the numbers mean nothing")
	fs.BoolVar(&cfg.injectFailure, "inject-failure", false, "record one failed operation (test hook)")
	fs.StringVar(&cfg.outDir, "out", "out", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		return cfg, fmt.Errorf("-workload must be one of %s, got %q", strings.Join(workloadNames(), ", "), cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// segments turns -seconds into the number of timed segments. The work per
// segment is fixed, so the same -seconds always gives the same total work.
func segments(cfg config, w workload) int {
	if cfg.smoke {
		return 3
	}
	return max(3, int(float64(cfg.seconds)/w.segSeconds))
}

// tracedPairs is the number of (untraced, traced) segment pairs of a
// traced run; the layer probes take the rest of its time.
func tracedPairs(cfg config, w workload) int {
	if cfg.smoke {
		return 1
	}
	return max(1, int(float64(cfg.seconds)/(8*w.segSeconds)))
}

// run is the whole driver; it returns the exit code.
func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "gostormbench:", err)
		}
		return 2
	}
	w, _ := workloadByName(cfg.workload)
	procs := min(w.procs, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	fmt.Fprintf(stdout, "workload %s seed %d GOMAXPROCS %d smoke %v trace %v\n", w.name, cfg.seed, procs, cfg.smoke, cfg.trace)
	b := &bench{cfg: cfg}
	var rep *report
	if cfg.trace {
		rep, err = tracedRun(b, w, stdout)
	} else {
		rep, err = timedRun(b, w, start, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "gostormbench:", err)
		return 2
	}
	if cfg.injectFailure {
		b.op()
		b.failf("injected failure")
	}
	if miss := rep.missing(); len(miss) > 0 {
		fmt.Fprintln(stderr, "gostormbench: metrics not measured:", strings.Join(miss, ", "))
		return 2
	}

	rep.print(stdout)
	fmt.Fprintf(stdout, "ops %d\nfailed_ops %d\n", b.ops, b.failed)
	for _, f := range b.failures {
		fmt.Fprintln(stderr, "gostormbench: failed op:", f)
	}
	if err := printResult(stdout, rep, b); err != nil {
		fmt.Fprintln(stderr, "gostormbench:", err)
		return 2
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// setUpAndRun sets the workload up and runs one segment under the tracing
// span parent. It returns what the segment did and how long both took.
func setUpAndRun(b *bench, w workload, parent int) (runner, segStats, time.Duration, error) {
	t0 := time.Now()
	r, err := w.build(b)
	if err != nil {
		return runner{}, segStats{}, 0, err
	}
	s := r.segment(parent)
	return r, s, time.Since(t0), nil
}

// checkSegment fails an operation when a segment did different work from
// the cold one: same seed and plan must give bit-equal statistics.
func checkSegment(b *bench, i int, got, cold segStats) {
	if got.execs != cold.execs || got.steps != cold.steps {
		b.failf("segment %d ran %d executions / %d steps, the cold segment %d / %d", i, got.execs, got.steps, cold.execs, cold.steps)
	}
}

// timedRun is the untraced run: a cold segment, then K timed segments,
// each after a fresh set-up. The end-to-end metrics come from the timed
// segments' quiet time; setup_s is what ran before the first set-up
// (runtime and package initialisation) plus the fastest set-up-and-segment,
// the cold one included, which also pays for heap growth.
func timedRun(b *bench, w workload, start time.Time, stdout io.Writer) (*report, error) {
	before := time.Since(start)
	r, cold, setup, err := setUpAndRun(b, w, -1)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "cold segment: %d executions, %d steps, %.4fs\n", cold.execs, cold.steps, cold.wall().Seconds())

	segs := make([]segStats, segments(b.cfg, w))
	walls := make([]float64, len(segs))
	setups := []float64{(before + setup).Seconds()}
	for i := range segs {
		if r, segs[i], setup, err = setUpAndRun(b, w, -1); err != nil {
			return nil, err
		}
		setups = append(setups, (before + setup).Seconds())
		checkSegment(b, i, segs[i], cold)
		walls[i] = segs[i].wall().Seconds()
	}
	if r.verify != nil {
		r.verify(cold)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sort.Float64s(walls)
	sort.Float64s(setups)
	k := len(walls)
	fmt.Fprintf(stdout, "%d segments: fastest %.4fs median %.4fs slowest %.4fs\n", k, walls[0], median(walls), walls[k-1])
	q := quiet(segs).Seconds()
	execs := float64(cold.execs)
	rep := newReport(endToEnd)
	rep.setSample("execs_per_s", sample{value: execs / q, n: k, min: execs / walls[k-1], max: execs / walls[0]})
	rep.setSample("time_to_verdict_s", sample{value: q, n: k, min: walls[0], max: walls[k-1]})
	rep.set("execs_to_verdict", execs)
	rep.set("peak_rss_mb", rss)
	rep.setSample("setup_s", sample{value: setups[0], n: k + 1, min: setups[0], max: setups[k]})
	return rep, nil
}

// tracedRun alternates untraced and traced segments, then runs the layer
// probes. It reports the per-layer metrics only: end-to-end metrics always
// come from an untraced run.
func tracedRun(b *bench, w workload, stdout io.Writer) (*report, error) {
	r, cold, _, err := setUpAndRun(b, w, -1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	pairs := tracedPairs(b.cfg, w)
	var plain, traced []segStats

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var execs int64
	for i := 0; i < pairs; i++ {
		s := r.segment(-1)
		checkSegment(b, 2*i, s, cold)
		plain = append(plain, s)

		b.tr = tr
		tr.setSegment(i)
		id := tr.start("segment", -1)
		s = r.segment(id)
		tr.end(id)
		tr.setSegment(-1)
		b.tr = nil
		checkSegment(b, 2*i+1, s, cold)
		traced = append(traced, s)
		execs += 2 * s.execs
	}
	wall := time.Since(t0)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	if r.verify != nil {
		r.verify(cold)
	}

	rep := newReport(perLayer)
	seg := quiet(plain).Seconds()
	fmt.Fprintf(stdout, "%d pairs of segments: untraced %.4fs traced %.4fs\n", pairs, seg, quiet(traced).Seconds())
	rep.set("core.ns_per_step", seg*1e9/float64(cold.steps))
	rep.set("core.steps_per_exec", float64(cold.steps)/float64(cold.execs))
	rep.set("core.alloc_bytes_per_exec", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(execs))
	rep.set("core.allocs_per_exec", float64(m1.Mallocs-m0.Mallocs)/float64(execs))
	rep.set("core.gc_cycles", float64(m1.NumGC-m0.NumGC))
	rep.set("core.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	rep.set("proc.cpu_s_per_kexec", (cpu1-cpu0).Seconds()/float64(execs)*1000)
	rep.set("proc.cpu_util", (cpu1-cpu0).Seconds()/wall.Seconds())
	// Untraced and traced segments do the same executions, so the ratio of
	// their times is the ratio of their execs_per_s.
	rep.set("trace.overhead_pct", (quiet(traced).Seconds()/seg-1)*100)

	b.tr = tr
	runProbes(b, rep)
	b.tr = nil

	path := filepath.Join(b.cfg.outDir, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(tr.spans), path)
	return rep, nil
}

// printResult writes the machine-readable result as the last line.
func printResult(stdout io.Writer, rep *report, b *bench) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.ops, b.failed, make(map[string]value, len(rep.defs))}
	for _, d := range rep.defs {
		out.Metrics[d.name] = value{rep.got[d.name].value, d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}
