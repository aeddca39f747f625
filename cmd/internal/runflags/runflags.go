// Package runflags states an exploration plan at the command line once, for
// every command that runs one: systest explores the plan in one process and
// gostormd shards it across a fleet, and because both parse the same flags
// into the same public options, a bug one of them finds the other
// reproduces from the same flags.
//
// The flags here are the ones that shape the schedule space or a verdict —
// scenario, schedulers, seed, budgets, fault plane. Flags that only say how
// one machine runs the plan (-workers, -shard, -trace-out, -addr, ...) stay
// with each command; Message names them all in the errors the commands
// print.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/gostorm/gostorm"
)

// Flags holds the plan flags registered on a flag set.
type Flags struct {
	// List is -list: print the scenario catalog instead of running.
	List bool

	test, scheduler, portfolio, faults string
	iterations, maxSteps               int
	seed                               int64
}

// Register declares the plan flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.BoolVar(&f.List, "list", false, "list registered scenarios and exit")
	fs.StringVar(&f.test, "test", "", "scenario name (see -list)")
	fs.StringVar(&f.scheduler, "scheduler", "", "scheduler: "+strings.Join(gostorm.SchedulerNames(), ", ")+"; empty = random")
	fs.StringVar(&f.portfolio, "portfolio", "", "comma-separated scheduler portfolio to race, in place of -scheduler")
	fs.Int64Var(&f.seed, "seed", 0, "base random seed")
	fs.IntVar(&f.iterations, "iterations", 0, "maximum executions (0 = scenario default); per member for a portfolio")
	fs.IntVar(&f.maxSteps, "max-steps", 0, "scheduling steps per execution (0 = scenario default); one that reaches it with a monitor hot runs on in a fair tail, to at most twice it")
	fs.StringVar(&f.faults, "faults", "", "fault budget replacing the scenario's, e.g. crashes=1,drops=2,dups=1,torn=1 (empty = scenario default; all zeros = no faults)")
	return f
}

// Plan checks the flags and returns the scenario they name with the options
// they state, layered over the scenario's recommended ones. Only a set flag
// adds an option; 0 or empty means "scenario default", and a negative bound
// is passed on for gostorm.Resolve to reject. The checks here are the rules
// the option set cannot see.
func (f *Flags) Plan() (gostorm.Scenario, []gostorm.Option, error) {
	var sc gostorm.Scenario
	members, err := f.members()
	if err != nil {
		return sc, nil, err
	}
	var faults []gostorm.Option
	if strings.TrimSpace(f.faults) != "" {
		b, err := parseFaultsSpec(f.faults)
		if err != nil {
			return sc, nil, err
		}
		faults = append(faults, gostorm.WithFaults(b))
	}
	if f.test == "" {
		return sc, nil, errors.New("-test is required (use -list to see scenarios)")
	}
	if sc, err = gostorm.ScenarioByName(f.test); err != nil {
		return sc, nil, fmt.Errorf("unknown scenario %s (use -list)", f.test)
	}

	opts := append(sc.Options(), gostorm.WithSeed(f.seed))
	switch {
	case len(members) > 0:
		opts = append(opts, gostorm.WithPortfolio(members...))
	case f.scheduler != "":
		opts = append(opts, gostorm.WithScheduler(f.scheduler))
	}
	if f.iterations != 0 {
		opts = append(opts, gostorm.WithIterations(f.iterations))
	}
	if f.maxSteps != 0 {
		opts = append(opts, gostorm.WithMaxSteps(f.maxSteps))
	}
	return sc, append(opts, faults...), nil
}

// fieldFlags maps the Field of a *gostorm.ConfigError to the flag that sets
// it: the engine's Options fields, and the fleet's Config and AgentConfig
// fields.
var fieldFlags = map[string]string{
	"Options.Iterations":      "-iterations",
	"Options.MaxSteps":        "-max-steps",
	"Options.Workers":         "-workers",
	"AgentConfig.Workers":     "-workers",
	"Options.Scheduler":       "-scheduler",
	"Options.Portfolio":       "-portfolio",
	"Config.LeaseSize":        "-lease",
	"Config.LeaseTTL":         "-lease-ttl",
	"AgentConfig.Coordinator": "-coordinator",
	"AgentConfig.Poll":        "-poll",
}

// Message renders err as a command prints it: a *gostorm.ConfigError on a
// field a flag sets names the flag the user typed ("-lease: must be
// non-negative, got -1"); any other error, a wrapped one included, reads as
// it is.
func Message(err error) string {
	if ce, ok := err.(*gostorm.ConfigError); ok {
		field, _, _ := strings.Cut(ce.Field, "[") // Options.Portfolio[i]
		if flag, ok := fieldFlags[field]; ok {
			return flag + ": " + ce.Reason
		}
	}
	return err.Error()
}

// members resolves the -portfolio/-scheduler pair into a member list (nil
// for a single-scheduler run). A set -scheduler conflicts with -portfolio —
// even "random", the default — so a member the user meant to add is never
// silently dropped.
func (f *Flags) members() ([]string, error) {
	if f.portfolio == "" {
		return nil, nil
	}
	if f.scheduler != "" {
		return nil, fmt.Errorf("-portfolio conflicts with -scheduler %s (drop one, or add %s to the member list)", f.scheduler, f.scheduler)
	}
	return ParsePortfolioSpec(f.portfolio)
}

// ParsePortfolioSpec parses a -portfolio value, a comma-separated member
// list ("random,pct,delay"), into scheduler names. Whitespace around members
// is ignored and an empty member is an error; the names themselves are
// checked by gostorm.Resolve, as Options.Portfolio[i].
func ParsePortfolioSpec(spec string) ([]string, error) {
	var members []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-portfolio: %q has an empty member (known schedulers: %s)",
				spec, strings.Join(gostorm.SchedulerNames(), ", "))
		}
		members = append(members, name)
	}
	return members, nil
}

// parseFaultsSpec parses a -faults value of the form
// "crashes=1,drops=2,dups=1,torn=1" (any subset of the keys, each at most
// once, whitespace tolerated) into a fault budget. An empty spec is the zero
// budget.
func parseFaultsSpec(spec string) (gostorm.Faults, error) {
	var f gostorm.Faults
	if strings.TrimSpace(spec) == "" {
		return f, nil
	}
	given := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return gostorm.Faults{}, fmt.Errorf("-faults: %q is not key=value (keys: crashes, drops, dups, torn)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return gostorm.Faults{}, fmt.Errorf("-faults: %q needs a non-negative integer", part)
		}
		k := strings.TrimSpace(key)
		switch k {
		case "crashes":
			f.MaxCrashes = n
		case "drops":
			f.MaxDrops = n
		case "dups":
			f.MaxDuplicates = n
		case "torn":
			f.MaxTornCrashes = n
		default:
			return gostorm.Faults{}, fmt.Errorf("-faults: unknown key %q (keys: crashes, drops, dups, torn)", key)
		}
		if given[k] {
			return gostorm.Faults{}, fmt.Errorf("-faults: %q repeats the %s key", part, k)
		}
		given[k] = true
	}
	return f, nil
}
