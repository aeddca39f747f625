// Command gostorm-agent is the distributed exploration worker: it joins a
// gostormd coordinator, pulls position leases from the shared schedule
// plan, explores them with the engine's sub-range hook, and reports
// resolved prefixes, statistics and bugs back.
//
// The agent is deliberately thin — it holds no fleet state, carries
// nothing from one lease to the next but the plan it joined, and makes no
// attribution decisions. It can be killed at any moment: an unreported
// lease expires at the coordinator and is re-issued, and the fleet's
// verdict is unchanged by the churn.
//
// Usage:
//
//	gostorm-agent -coordinator http://127.0.0.1:7077
//	gostorm-agent -coordinator http://host:7077 -name rack3-7 -workers 8
//
// Exit codes: 0 run complete, 1 failure, 2 configuration error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/cmd/internal/runflags"
	"github.com/gostorm/gostorm/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gostorm-agent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:7077", "coordinator base URL")
		name        = fs.String("name", "", "agent name (default: hostname-pid)")
		workers     = fs.Int("workers", 0, "local exploration workers (0 = one per CPU)")
		poll        = fs.Duration("poll", dist.DefaultPoll, "status poll cadence while a lease runs (picks up fleet-wide stop bounds)")
		verbose     = fs.Bool("v", false, "log agent events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "agent"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	cfg := dist.AgentConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Workers:     *workers,
		Poll:        *poll,
		BuildTest: func(scenario string) (gostorm.Test, error) {
			sc, err := gostorm.ScenarioByName(scenario)
			if err != nil {
				return gostorm.Test{}, err
			}
			return sc.Test(), nil
		},
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, "gostorm-agent %s: "+format+"\n", append([]any{*name}, args...)...)
		}
	}
	agent, err := dist.NewAgent(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "gostorm-agent:", runflags.Message(err))
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := agent.Run(ctx); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "gostorm-agent: interrupted")
			return 1
		}
		fmt.Fprintln(stderr, "gostorm-agent:", runflags.Message(err))
		return 1
	}
	fmt.Fprintln(stdout, "gostorm-agent: run complete")
	return 0
}
