// Command systest runs a registered systematic test under a chosen
// scheduler — or a racing portfolio of schedulers — reports any violation
// with its decision trace, and can replay a previously recorded trace to
// reproduce a bug exactly.
//
// The command is a pure consumer of the public gostorm API: scenarios
// come from gostorm.Scenarios, the plan flags (shared with gostormd, in
// cmd/internal/runflags) translate into functional options layered over
// each scenario's recommendations, and runs go through
// gostorm.Explore/Replay — the same surface user harnesses call.
//
// Usage:
//
//	systest -list
//	systest -test ExtentNodeLivenessViolation -scheduler random -iterations 20000
//	systest -test ExtentNodeLivenessViolation -portfolio random,pct,delay
//	systest -test DeletePrimaryKey -trace-out bug.trace
//	systest -test DeletePrimaryKey -replay bug.trace -v
//	systest -test DeletePrimaryKey -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/cmd/internal/runflags"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run holds the whole CLI behind an exit code so main stays a one-liner
// and every error path funnels through the same validated flow.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("systest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	planFlags := runflags.Register(fs)
	var (
		workers    = fs.Int("workers", 0, "size of the one pool of exploration workers, shared by all portfolio members (0 = one per CPU; replay always uses 1)")
		shard      = fs.String("shard", "", "explore only shard i/n of the schedule plan (e.g. 0/4); the union of all n shards covers the full run")
		traceOut   = fs.String("trace-out", "", "write the buggy trace to this file")
		replay     = fs.String("replay", "", "replay a trace file instead of exploring")
		verbose    = fs.Bool("v", false, "print the detailed execution log of the violation")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if planFlags.List {
		fmt.Fprint(stdout, gostorm.DescribeScenarios())
		return 0
	}
	// Validate everything up front: a bad flag must fail here with a clear
	// message, not thousands of executions in.
	sc, opts, err := planFlags.Plan()
	if err != nil {
		fmt.Fprintln(stderr, "systest:", runflags.Message(err))
		return 2
	}
	shardIdx, shardN, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(stderr, "systest:", runflags.Message(err))
		return 2
	}
	if shardN > 0 && *replay != "" {
		fmt.Fprintln(stderr, "systest: -shard selects a slice of the exploration plan and conflicts with -replay")
		return 2
	}
	if *workers != 0 {
		opts = append(opts, gostorm.WithWorkers(*workers))
	}

	target := sc.Test()
	cfg, err := gostorm.Resolve(target, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "systest:", runflags.Message(err))
		return 2
	}

	// Profiling wraps the whole run — exploration or replay. Both files
	// are created up front so a bad path fails here, like every other
	// flag error, rather than after thousands of executions.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "systest: -cpuprofile:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "systest: -cpuprofile:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "systest: -memprofile:", err)
			return 2
		}
		defer func() {
			// Collect garbage first so the profile reports live memory,
			// not whatever the last GC cycle happened to leave behind.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "systest: -memprofile:", err)
			}
			f.Close()
		}()
	}

	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fmt.Fprintln(stderr, "systest:", runflags.Message(err))
			return 1
		}
		tr, err := gostorm.DecodeTrace(data)
		if err != nil {
			fmt.Fprintln(stderr, "systest:", runflags.Message(err))
			return 1
		}
		rep, err := gostorm.Replay(target, tr, opts...)
		if err != nil {
			fmt.Fprintln(stderr, "systest: replay diverged:", err)
			return 1
		}
		if rep == nil {
			fmt.Fprintln(stdout, "replay completed without a violation")
			return 0
		}
		fmt.Fprintln(stdout, "replay reproduced:", rep.Error())
		if *verbose {
			fmt.Fprintln(stdout, rep.FormatLog())
		}
		return 0
	}

	if shardN > 0 {
		return runShard(stdout, stderr, target, sc.Name, cfg, opts, shardIdx, shardN, *traceOut, *verbose)
	}

	if len(cfg.Portfolio) > 0 {
		fmt.Fprintf(stdout, "racing a %s portfolio on %s (up to %d executions of %d steps per member, seed %d, %d members on one pool of %s, faults %s)\n",
			strings.Join(cfg.Portfolio, "+"), sc.Name,
			cfg.Iterations, cfg.MaxSteps, cfg.Seed, len(cfg.Portfolio), describeWorkers(cfg), cfg.Faults)
	} else {
		fmt.Fprintf(stdout, "exploring %s with the %s scheduler (up to %d executions of %d steps, seed %d, %s, faults %s)\n",
			sc.Name, cfg.Scheduler, cfg.Iterations, cfg.MaxSteps, cfg.Seed,
			describeWorkers(cfg), cfg.Faults)
	}
	res, err := gostorm.Explore(target, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "systest:", runflags.Message(err))
		return 2
	}
	for m, ms := range res.Portfolio {
		marker := " "
		if ms.Winner {
			marker = "*"
		}
		fmt.Fprintf(stdout, "%s member %d %-8s executions=%d steps=%d elapsed=%.2fs\n",
			marker, m, ms.Scheduler, ms.Executions, ms.TotalSteps, ms.Elapsed.Seconds())
	}
	fmt.Fprintln(stdout, res.String())
	if !res.BugFound {
		return 0
	}
	return reportBug(stdout, stderr, res.Report, *traceOut, *verbose)
}

// reportBug prints the violation's execution log under -v and writes its
// trace to -trace-out, then returns the bug-found exit code.
func reportBug(stdout, stderr io.Writer, rep *gostorm.BugReport, traceOut string, verbose bool) int {
	if verbose {
		fmt.Fprintln(stdout, rep.FormatLog())
	}
	if traceOut != "" {
		data, err := rep.Trace.Encode()
		if err == nil {
			err = os.WriteFile(traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "systest: writing trace:", err)
			return 1
		}
		fmt.Fprintln(stdout, "trace written to", traceOut)
	}
	return 1
}

// parseShard parses the -shard i/n spec. n == 0 means the flag was not
// set. The whole pair is validated here, up front, like every other flag:
// a malformed spec must fail before any execution starts.
func parseShard(spec string) (i, n int64, err error) {
	if strings.TrimSpace(spec) == "" {
		return 0, 0, nil
	}
	is, ns, ok := strings.Cut(spec, "/")
	i, errI := strconv.ParseInt(is, 10, 64)
	n, errN := strconv.ParseInt(ns, 10, 64)
	if !ok || errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("-shard must be i/n (e.g. 0/4), got %q", spec)
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("-shard %s: shard count must be positive", spec)
	}
	if i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %s: shard index must be in [0, %d)", spec, n)
	}
	return i, n, nil
}

// runShard explores one slice of the schedule plan via the public
// sharding hook — the by-hand form of what the gostormd fleet automates.
// The union of all n shards' outcomes equals the full run: the lowest
// reported global position wins, with a bit-identical trace.
func runShard(stdout, stderr io.Writer, target gostorm.Test, scenario string, cfg gostorm.Config, opts []gostorm.Option, idx, n int64, traceOut string, verbose bool) int {
	total, err := gostorm.PlanSize(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "systest:", runflags.Message(err))
		return 2
	}
	from := idx * total / n
	to := (idx + 1) * total / n
	if from == to {
		fmt.Fprintf(stdout, "shard %d/%d owns no positions of the %d-position plan\n", idx, n, total)
		return 0
	}
	sched := cfg.Scheduler
	if len(cfg.Portfolio) > 0 {
		sched = "portfolio " + strings.Join(cfg.Portfolio, "+")
	}
	fmt.Fprintf(stdout, "exploring shard %d/%d of %s: positions [%d, %d) of %d (%s, seed %d, faults %s)\n",
		idx, n, scenario, from, to, total, sched, cfg.Seed, cfg.Faults)
	res, err := gostorm.ExploreShard(target, gostorm.Shard{From: from, To: to}, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "systest:", runflags.Message(err))
		return 2
	}
	if !res.BugFound {
		fmt.Fprintf(stdout, "shard %d/%d clean: resolved [%d, %d), %d executions, %d total steps, %.2fs\n",
			idx, n, res.From, res.ResolvedTo, res.Executions, res.TotalSteps, res.Elapsed.Seconds())
		return 0
	}
	fmt.Fprintf(stdout, "bug found at global position %d (member %d, iteration %d): %s\n",
		res.BugPos, res.Member, res.Report.Iteration, res.Report.Error())
	return reportBug(stdout, stderr, res.Report, traceOut, verbose)
}

// describeWorkers renders the resolved worker count.
func describeWorkers(cfg gostorm.Config) string {
	if cfg.Workers == 1 {
		return "1 worker"
	}
	return fmt.Sprintf("%d workers", cfg.Workers)
}
