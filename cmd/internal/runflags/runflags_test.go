package runflags

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/gostorm/gostorm"
)

// resolve parses args as systest and gostormd do and resolves the plan the
// flags state — the first error either step reports, or the Config.
func resolve(t *testing.T, args ...string) (gostorm.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("runflags", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	sc, opts, err := f.Plan()
	if err != nil {
		return gostorm.Config{}, err
	}
	return gostorm.Resolve(sc.Test(), opts...)
}

// TestPlanFlagsFailUpFront pins every plan-flag error both CLIs print,
// whole: a bad flag fails before anything runs, with one message naming the
// flag once.
func TestPlanFlagsFailUpFront(t *testing.T) {
	const known = "(known: delay, mutational, pct, random, rr)"
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown scheduler", []string{"-test", "replsys", "-scheduler", "quantum"}, `-scheduler: unknown scheduler "quantum" ` + known},
		{"unknown portfolio member", []string{"-test", "replsys", "-portfolio", "random,quantum"}, `-portfolio: unknown scheduler "quantum" ` + known},
		{"empty portfolio member", []string{"-test", "replsys", "-portfolio", "random,,pct"}, `-portfolio: "random,,pct" has an empty member (known schedulers: delay, mutational, pct, random, rr)`},
		{"portfolio is not a scheduler", []string{"-test", "replsys", "-scheduler", "portfolio"}, `-scheduler: unknown scheduler "portfolio" ` + known},
		{"portfolio is spelled only -portfolio", []string{"-test", "replsys", "-scheduler", "portfolio", "-portfolio", "pct,delay"}, "-portfolio conflicts with -scheduler portfolio (drop one, or add portfolio to the member list)"},
		{"portfolio vs scheduler conflict", []string{"-test", "replsys", "-scheduler", "rr", "-portfolio", "random"}, "-portfolio conflicts with -scheduler rr (drop one, or add rr to the member list)"},
		{"explicit default scheduler still conflicts", []string{"-test", "replsys", "-scheduler", "random", "-portfolio", "pct,delay"}, "-portfolio conflicts with -scheduler random (drop one, or add random to the member list)"},
		{"missing test", []string{"-scheduler", "random"}, "-test is required (use -list to see scenarios)"},
		{"unknown scenario", []string{"-test", "nope"}, "unknown scenario nope (use -list)"},
		{"bad faults key", []string{"-test", "replsys", "-faults", "bogus=1"}, `-faults: unknown key "bogus" (keys: crashes, drops, dups, torn)`},
		{"bad faults value", []string{"-test", "replsys", "-faults", "crashes=x"}, `-faults: "crashes=x" needs a non-negative integer`},
		{"repeated faults key", []string{"-test", "replsys", "-faults", "dups=1,crashes=1,dups=0"}, `-faults: "dups=0" repeats the dups key`},
		{"negative iterations", []string{"-test", "wal-fixed", "-iterations", "-5"}, "-iterations: must be positive, got -5"},
		{"negative max-steps", []string{"-test", "wal-fixed", "-max-steps", "-3"}, "-max-steps: must be positive, got -3"},
		{"plan too large to number", []string{"-test", "wal-fixed", "-portfolio", "random,pct", "-iterations", "4611686018427387904"}, "-iterations: must be at most 4611686018427387903 for a plan of 2 member(s), got 4611686018427387904"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := resolve(t, c.args...)
			if err == nil || Message(err) != c.want {
				t.Fatalf("error = %v, want one printed as %q", err, c.want)
			}
		})
	}
}

// TestPlanFlagsLayerOverTheScenario: an unset flag keeps the scenario's
// default, and a -faults spec replaces the scenario's budget wholesale.
// systest's TestCLIFaultPlaneRoundTrip holds the other fault-flag rules to
// its banner.
func TestPlanFlagsLayerOverTheScenario(t *testing.T) {
	for _, c := range []struct {
		args      []string
		scheduler string
		portfolio []string
		faults    string
	}{
		{[]string{"-test", "vnext-repair-lossy"}, "random", nil, "crashes=1 drops=3 dups=2"},
		{[]string{"-test", "vnext-repair-lossy", "-faults", "crashes=3,drops=2"}, "random", nil, "crashes=3 drops=2"},
		{[]string{"-test", "replsys", "-portfolio", "random,pct"}, "", []string{"random", "pct"}, "-"},
	} {
		cfg, err := resolve(t, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if cfg.Scheduler != c.scheduler || !slices.Equal(cfg.Portfolio, c.portfolio) || cfg.Faults.String() != c.faults {
			t.Errorf("%v resolves to scheduler %q portfolio %v faults %s, want %q %v %s",
				c.args, cfg.Scheduler, cfg.Portfolio, cfg.Faults, c.scheduler, c.portfolio, c.faults)
		}
	}
}

// TestMessageNamesTheFlag: every field the table maps is printed as its
// flag, a portfolio member's index included; a field no flag sets, and any
// other error, reads as it is.
func TestMessageNamesTheFlag(t *testing.T) {
	for field, want := range map[string]string{
		"Options.Iterations":      "-iterations: bad",
		"Options.MaxSteps":        "-max-steps: bad",
		"Options.Workers":         "-workers: bad",
		"AgentConfig.Workers":     "-workers: bad",
		"Options.Scheduler":       "-scheduler: bad",
		"Options.Portfolio":       "-portfolio: bad",
		"Options.Portfolio[2]":    "-portfolio: bad",
		"Config.LeaseSize":        "-lease: bad",
		"Config.LeaseTTL":         "-lease-ttl: bad",
		"AgentConfig.Coordinator": "-coordinator: bad",
		"AgentConfig.Poll":        "-poll: bad",
		"WithIterations":          "gostorm: WithIterations: bad",
		"Shard":                   "gostorm: Shard: bad",
	} {
		if got := Message(&gostorm.ConfigError{Field: field, Reason: "bad"}); got != want {
			t.Errorf("%s: printed %q, want %q", field, got, want)
		}
	}
	if got := Message(io.EOF); got != "EOF" {
		t.Errorf("a plain error printed %q", got)
	}
}

// TestParseFaultsSpec covers the -faults spec parser.
func TestParseFaultsSpec(t *testing.T) {
	got, err := parseFaultsSpec(" crashes=1, drops=2 , dups=3 ")
	if err != nil {
		t.Fatal(err)
	}
	if got != (gostorm.Faults{MaxCrashes: 1, MaxDrops: 2, MaxDuplicates: 3}) {
		t.Fatalf("parsed %+v", got)
	}
	if got, err := parseFaultsSpec(""); err != nil || got != (gostorm.Faults{}) {
		t.Fatalf("empty spec: %+v, %v", got, err)
	}
	for _, bad := range []string{"crashes", "crashes=-1", "crashes=x", "warp=3"} {
		if _, err := parseFaultsSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// A key given twice is rejected, naming it, rather than the last value
	// silently winning; each key has one spelling, the one Faults.String
	// prints.
	for _, c := range []struct{ spec, want string }{
		{"crashes=1,crashes=0", `"crashes=0" repeats the crashes key`},
		{"torn=1, drops=2, torn=1", `"torn=1" repeats the torn key`},
		{"dups=1,dups=2", `"dups=2" repeats the dups key`},
		{"duplicates=2", `unknown key "duplicates" (keys: crashes, drops, dups, torn)`},
	} {
		if _, err := parseFaultsSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("spec %q: error = %v, want one containing %s", c.spec, err, c.want)
		}
	}
}

// TestParsePortfolioSpec: the -portfolio parser trims members and rejects
// an empty one; an unknown name is Resolve's to report (the "unknown
// portfolio member" row of TestPlanFlagsFailUpFront).
func TestParsePortfolioSpec(t *testing.T) {
	members, err := ParsePortfolioSpec(" random, pct ,delay")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(members, []string{"random", "pct", "delay"}) {
		t.Fatalf("members = %v", members)
	}
	if _, err := ParsePortfolioSpec("random,,pct"); err == nil || !strings.Contains(err.Error(), "empty member") {
		t.Fatalf("empty member not rejected: %v", err)
	}
}
