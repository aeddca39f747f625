// Command gostormd is the distributed exploration coordinator: it owns
// one exploration plan over a registered scenario, serves the control
// plane (lease grants, bug reports, corpus merging, /v1/status, /healthz,
// /metrics) to a fleet of gostorm-agent processes, and exits with the
// run's verdict once the deterministic winner is confirmed.
//
// The coordinator never executes the scenario itself — it only cuts the
// global schedule plan into leases and merges what agents report. For a
// fixed -seed and plan, the winning bug (member, iteration, trace bytes)
// is bit-identical whatever the fleet size or agent churn.
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

	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
	"github.com/gostorm/gostorm/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gostormd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list registered scenarios and exit")
		test        = fs.String("test", "", "scenario name (see -list)")
		scheduler   = fs.String("scheduler", "", "scheduler (default: scenario recommendation, else random)")
		portfolio   = fs.String("portfolio", "", "comma-separated scheduler portfolio to race instead of -scheduler")
		pctDepth    = fs.Int("pct-depth", 2, "priority change points for the pct/delay schedulers")
		seed        = fs.Int64("seed", 0, "base random seed (determines the plan's winner)")
		iterations  = fs.Int("iterations", 0, "maximum executions (0 = scenario default); per member for a portfolio")
		maxSteps    = fs.Int("max-steps", 0, "scheduling steps per execution (0 = scenario default)")
		corpusSize  = fs.Int("corpus-size", 0, "exploration corpus capacity for feedback schedulers (0 = default)")
		temperature = fs.Int("temperature", 0, "liveness temperature threshold (0 = bound check only)")
		faults      = fs.String("faults", "", "fault budget override, e.g. crashes=1,drops=2 (empty = scenario default; all zeros = disable)")
		addr        = fs.String("addr", "127.0.0.1:7077", "control-plane listen address (use :0 for an ephemeral port)")
		leaseSize   = fs.Int64("lease", 256, "global positions per lease")
		leaseTTL    = fs.Duration("lease-ttl", 10*time.Second, "lease expiry; an unreported lease is re-issued after this")
		linger      = fs.Duration("linger", 2*time.Second, "how long to keep serving after the verdict so agents learn the run is done")
		traceOut    = fs.String("trace-out", "", "write the winning bug's trace to this file")
		verbose     = fs.Bool("v", false, "log control-plane events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprint(stdout, catalog.Describe())
		return 0
	}
	if *test == "" {
		fmt.Fprintln(stderr, "gostormd: -test is required (use -list to see scenarios)")
		return 2
	}
	if *leaseSize < 0 {
		fmt.Fprintf(stderr, "gostormd: -lease must be non-negative, got %d\n", *leaseSize)
		return 2
	}
	// Options.PCTDepth reads 0 as "default", so the flag's 0 is rejected
	// here, as systest does, rather than silently running depth 2.
	if *pctDepth <= 0 {
		fmt.Fprintf(stderr, "gostormd: -pct-depth must be positive, got %d\n", *pctDepth)
		return 2
	}
	if *portfolio != "" && *scheduler != "" {
		fmt.Fprintf(stderr, "gostormd: -portfolio conflicts with -scheduler %s (drop one, or add %s to the member list)\n", *scheduler, *scheduler)
		return 2
	}
	entry, err := catalog.Get(*test)
	if err != nil {
		fmt.Fprintln(stderr, "gostormd:", err)
		return 2
	}

	// Layer CLI overrides on the scenario's recommended options — the same
	// resolution systest performs, minus the machine-local knobs (Workers)
	// that belong to each agent. 0 means "default"; a negative value is
	// passed on for dist.New to reject.
	opts := entry.Options
	opts.Seed = *seed
	opts.PCTDepth = *pctDepth
	if *portfolio != "" {
		members, err := core.ParsePortfolioSpec(*portfolio)
		if err != nil {
			fmt.Fprintln(stderr, "gostormd: -portfolio:", err)
			return 2
		}
		opts.Portfolio = members
		opts.Scheduler = ""
	} else if *scheduler != "" {
		opts.Scheduler = *scheduler
		opts.Portfolio = nil
	}
	if *iterations != 0 {
		opts.Iterations = *iterations
	}
	if *maxSteps != 0 {
		opts.MaxSteps = *maxSteps
	}
	if *corpusSize != 0 {
		opts.CorpusSize = *corpusSize
	}
	if *temperature != 0 {
		opts.Temperature = *temperature
	}
	if strings.TrimSpace(*faults) != "" {
		f, err := core.ParseFaultsSpec(*faults)
		if err != nil {
			fmt.Fprintln(stderr, "gostormd: -faults:", err)
			return 2
		}
		// A zero Options.Faults defers to the scenario's budget, so the
		// all-zero spec is spelled NoFaults — what systest's WithFaults does.
		opts.Faults, opts.NoFaults = f, f == core.Faults{}
	}

	cfg := dist.Config{
		Scenario:  *test,
		Options:   opts,
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
		fmt.Fprintln(stderr, "gostormd:", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "gostormd:", err)
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
