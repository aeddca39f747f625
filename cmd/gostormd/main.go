// Command gostormd is the distributed exploration coordinator: it owns
// one exploration plan over a registered scenario, serves the control
// plane (lease grants, bug reports, /v1/status, /healthz, /metrics) to a
// fleet of gostorm-agent processes, and exits with the run's verdict once
// the deterministic winner is confirmed.
//
// The coordinator never executes the scenario itself — it only cuts the
// global schedule plan into leases and merges what agents report. For a
// fixed -seed and plan, the winning bug (member, iteration, trace bytes)
// is bit-identical whatever the fleet size or agent churn. The plan flags
// are systest's own (cmd/internal/runflags), so `systest` with the same
// flags explores the same plan in one process. A plan with a mutational
// member runs whole and is refused here, as `systest -shard` refuses it.
//
// Usage:
//
//	gostormd -test wal-torn-tail -seed 1 -iterations 20000
//	gostormd -test replsys-safety -portfolio random,pct -addr :7077 -trace-out bug.trace
//
// Exit codes: 1 bug found, 0 plan exhausted clean, 2 configuration error.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/cmd/internal/runflags"
	"github.com/gostorm/gostorm/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gostormd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	planFlags := runflags.Register(fs)
	var (
		addr      = fs.String("addr", "127.0.0.1:7077", "control-plane listen address (use :0 for an ephemeral port)")
		leaseSize = fs.Int64("lease", dist.DefaultLeaseSize, "global positions per lease (0 = default)")
		leaseTTL  = fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "lease expiry; an unreported lease is re-issued after this (0 = default)")
		linger    = fs.Duration("linger", 2*time.Second, "how long to keep serving after the verdict so agents learn the run is done")
		traceOut  = fs.String("trace-out", "", "write the winning bug's trace to this file")
		verbose   = fs.Bool("v", false, "log control-plane events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if planFlags.List {
		fmt.Fprint(stdout, gostorm.DescribeScenarios())
		return 0
	}
	// dist.New checks -lease and -lease-ttl; -linger is this binary's own.
	if *linger < 0 {
		fmt.Fprintf(stderr, "gostormd: -linger: must be non-negative, got %v\n", *linger)
		return 2
	}
	// The plan is resolved exactly as systest resolves it; the resolved
	// gostorm.Config is the engine's own option set, so it is the plan
	// dist.New publishes (Workers is machine-local and stays off the wire).
	sc, opts, err := planFlags.Plan()
	if err != nil {
		fmt.Fprintln(stderr, "gostormd:", runflags.Message(err))
		return 2
	}
	resolved, err := gostorm.Resolve(sc.Test(), opts...)
	if err != nil {
		fmt.Fprintln(stderr, "gostormd:", runflags.Message(err))
		return 2
	}

	cfg := dist.Config{
		Scenario:  sc.Name,
		Options:   resolved,
		LeaseSize: *leaseSize,
		LeaseTTL:  *leaseTTL,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, "gostormd: "+format+"\n", args...)
		}
	}
	co, err := dist.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "gostormd:", runflags.Message(err))
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "gostormd:", runflags.Message(err))
		return 2
	}
	srv := &http.Server{Handler: co.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	plan := co.Plan()
	fmt.Fprintf(stdout, "gostormd: coordinating %s over %d position(s) (%s, seed %d) on http://%s\n",
		plan.Scenario, plan.Total, describePlanSchedulers(plan), plan.Seed, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-co.Done():
	case s := <-sig:
		fmt.Fprintf(stderr, "gostormd: interrupted by %v before the verdict\n", s)
		return 2
	}
	// Keep the control plane up briefly so agents polling for leases learn
	// the run is done instead of dying on a refused connection.
	time.Sleep(*linger)

	res := co.Result()
	if res.Mismatches > 0 {
		fmt.Fprintf(stderr, "gostormd: WARNING: %d determinism violation(s): %s\n", res.Mismatches, res.FirstMismatch)
	}
	if !res.BugFound {
		fmt.Fprintf(stdout, "no bug found in %d executions (%d total steps, %.2fs)\n",
			res.Executions, res.TotalSteps, res.Elapsed.Seconds())
		return 0
	}
	fmt.Fprintf(stdout, "bug found at global position %d (member %d, iteration %d) after %d executions: %s\n",
		res.BugPos, res.Member, res.Iteration, res.Executions, res.Message)
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, res.TraceBytes, 0o644); err != nil {
			fmt.Fprintln(stderr, "gostormd: writing trace:", err)
			return 1
		}
		fmt.Fprintln(stdout, "trace written to", *traceOut)
	}
	return 1
}

func describePlanSchedulers(p dist.PlanConfig) string {
	if len(p.Portfolio) > 0 {
		return "portfolio " + strings.Join(p.Portfolio, "+")
	}
	return p.Scheduler + " scheduler"
}
