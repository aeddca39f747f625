package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef is one declared metric. The two lists below are the single
// source of truth for what the driver prints; BENCHMARK.json repeats the
// names and units, and TestNamesAgreeWithBenchmarkJSON keeps the two in
// step.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by an untraced run (-trace 0).
var endToEnd = []metricDef{
	{"execs_per_s", "1/s"},
	{"time_to_verdict_s", "s"},
	{"execs_to_verdict", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is printed by a traced run (-trace 1). The prefix of a name is
// the module (layer) the number belongs to.
var perLayer = []metricDef{
	// gostorm: the root API.
	{"gostorm.resolve_us", "us"},
	{"gostorm.scenario_build_us", "us"},
	{"gostorm.cold_explore_ms.replsys", "ms"},
	{"gostorm.cold_explore_ms.mtable", "ms"},
	{"gostorm.cold_explore_ms.wal", "ms"},
	// core: stepping.
	{"core.ns_per_step", "ns"},
	{"core.step_floor_ns", "ns"},
	{"core.steps_per_exec", "count"},
	// core: per-execution work.
	{"core.exec_overhead_us", "us"},
	{"core.exec_overhead_noreuse_us", "us"},
	{"core.pool.reuse_speedup", "ratio"},
	{"core.alloc_bytes_per_exec", "B"},
	{"core.allocs_per_exec", "count"},
	{"core.gc_cycles", "count"},
	{"core.gc_pause_ms", "ms"},
	// core: crash plane.
	{"core.crash.ns_per_exec", "ns"},
	{"core.crash.off_ns_per_exec", "ns"},
	// core: schedulers.
	{"core.sched.random.ns_per_step", "ns"},
	{"core.sched.pct.ns_per_step", "ns"},
	{"core.sched.delay.ns_per_step", "ns"},
	{"core.sched.rr.ns_per_step", "ns"},
	{"core.sched.mutational.ns_per_step", "ns"},
	{"core.hunt.execs_to_bug.random", "count"},
	{"core.hunt.execs_to_bug.pct", "count"},
	{"core.hunt.found.random", "count"},
	{"core.hunt.found.pct", "count"},
	// core: trace, replay, corpus.
	{"core.trace.encode_us_per_kdec", "us"},
	{"core.trace.decode_us_per_kdec", "us"},
	{"core.trace.bytes_per_decision", "B"},
	{"core.replay.ms", "ms"},
	{"core.corpus.encode_us", "us"},
	{"core.corpus.decode_us", "us"},
	{"core.corpus.bytes", "B"},
	// core: exploration loops.
	{"core.shard.overhead_ratio", "ratio"},
	{"core.scale.w2_speedup.replsys", "ratio"},
	{"core.scale.w2_speedup.mtable", "ratio"},
	{"core.handoff.p2_penalty.replsys", "ratio"},
	{"core.handoff.p2_penalty.wal", "ratio"},
	{"core.portfolio.overhead_ratio.p1", "ratio"},
	{"core.portfolio.overhead_ratio.p2", "ratio"},
	// dist: the fleet control plane.
	{"dist.handler_lease_us", "us"},
	{"dist.handler_report_us", "us"},
	{"dist.handler_status_us", "us"},
	{"dist.lease_rtt_us", "us"},
	{"dist.leases_per_run", "count"},
	{"dist.bytes_per_lease", "B"},
	{"dist.join_to_first_lease_ms", "ms"},
	{"dist.fleet_efficiency", "ratio"},
	// harnesses: ns per scheduling step on each system's clean scenario.
	{"replsys.ns_per_step", "ns"},
	{"vnext.ns_per_step", "ns"},
	{"mtable.ns_per_step", "ns"},
	{"fabric.ns_per_step", "ns"},
	{"wal.ns_per_step", "ns"},
	// catalog.
	{"catalog.get_us", "us"},
	// process and tracing.
	{"proc.cpu_s_per_kexec", "s"},
	{"proc.cpu_util", "cores"},
	{"trace.overhead_pct", "%"},
}

// sample is a reported metric: the value (the median where n > 1) and the
// spread it was taken from.
type sample struct {
	value, min, max float64
	n               int
}

// report collects the values of one declared metric list.
type report struct {
	defs []metricDef
	got  map[string]sample
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, got: make(map[string]sample, len(defs))}
}

// set records a single value.
func (r *report) set(name string, v float64) {
	r.setSample(name, sample{value: v, min: v, max: v, n: 1})
}

// setMedian records the median, minimum and maximum of vs.
func (r *report) setMedian(name string, vs []float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	r.setSample(name, sample{value: median(s), min: s[0], max: s[len(s)-1], n: len(s)})
}

func (r *report) setSample(name string, s sample) {
	for _, d := range r.defs {
		if d.name == name {
			if _, dup := r.got[name]; dup {
				panic("gostormbench: metric " + name + " reported twice")
			}
			r.got[name] = s
			return
		}
	}
	panic("gostormbench: metric " + name + " is not declared")
}

// missing lists declared metrics that were never set.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.got[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes one line per declared metric, in declaration order.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		s := r.got[d.name]
		fmt.Fprintf(w, "metric %-38s %16.6g %-6s n=%-3d min=%.6g max=%.6g\n", d.name, s.value, d.unit, s.n, s.min, s.max)
	}
}

// median returns the median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return median(s)
}
