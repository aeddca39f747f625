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

// TestPlanFlagsFailUpFront pins every plan-flag error both CLIs print: a bad
// flag fails before anything runs, with a message naming the flag or the
// option it became.
func TestPlanFlagsFailUpFront(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown scheduler", []string{"-test", "replsys", "-scheduler", "quantum"}, "unknown scheduler"},
		{"unknown portfolio member", []string{"-test", "replsys", "-portfolio", "random,quantum"}, "unknown scheduler"},
		{"empty portfolio member", []string{"-test", "replsys", "-portfolio", "random,,pct"}, "empty member"},
		{"portfolio is not a scheduler", []string{"-test", "replsys", "-scheduler", "portfolio"}, "unknown scheduler"},
		{"portfolio is spelled only -portfolio", []string{"-test", "replsys", "-scheduler", "portfolio", "-portfolio", "pct,delay"}, "-portfolio conflicts with -scheduler portfolio"},
		{"portfolio vs scheduler conflict", []string{"-test", "replsys", "-scheduler", "rr", "-portfolio", "random"}, "-portfolio conflicts with -scheduler rr"},
		{"explicit default scheduler still conflicts", []string{"-test", "replsys", "-scheduler", "random", "-portfolio", "pct,delay"}, "-portfolio conflicts with -scheduler random"},
		{"missing test", []string{"-scheduler", "random"}, "-test is required"},
		{"unknown scenario", []string{"-test", "nope"}, "unknown scenario nope"},
		{"bad faults key", []string{"-test", "replsys", "-faults", "bogus=1"}, "unknown key"},
		{"bad faults value", []string{"-test", "replsys", "-faults", "crashes=x"}, "non-negative integer"},
		{"repeated faults key", []string{"-test", "replsys", "-faults", "dups=1,crashes=1,dups=0"}, "-faults: core: fault spec \"dups=1,crashes=1,dups=0\": \"dups=0\" repeats the dups key"},
		{"negative iterations", []string{"-test", "wal-fixed", "-iterations", "-5"}, "-iterations: must be positive, got -5"},
		{"negative max-steps", []string{"-test", "wal-fixed", "-max-steps", "-3"}, "-max-steps: must be positive, got -3"},
		{"plan too large to number", []string{"-test", "wal-fixed", "-portfolio", "random,pct", "-iterations", "4611686018427387904"}, "-iterations: must be at most 4611686018427387903"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := resolve(t, c.args...)
			if err == nil || !strings.Contains(Message(err), c.want) {
				t.Fatalf("error = %v, want one printed containing %q", err, c.want)
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
		"WithIterations":       "-iterations: bad",
		"Options.Iterations":   "-iterations: bad",
		"WithMaxSteps":         "-max-steps: bad",
		"Options.MaxSteps":     "-max-steps: bad",
		"WithWorkers":          "-workers: bad",
		"Options.Workers":      "-workers: bad",
		"AgentConfig.Workers":  "-workers: bad",
		"WithScheduler":        "-scheduler: bad",
		"Options.Scheduler":    "-scheduler: bad",
		"WithPortfolio":        "-portfolio: bad",
		"Options.Portfolio[2]": "-portfolio: bad",
		"Config.LeaseSize":     "-lease: bad",
		"Config.LeaseTTL":      "-lease-ttl: bad",
		"AgentConfig.Poll":     "-poll: bad",
		"Shard":                "gostorm: Shard: bad",
	} {
		if got := Message(&gostorm.ConfigError{Field: field, Reason: "bad"}); got != want {
			t.Errorf("%s: printed %q, want %q", field, got, want)
		}
	}
	if got := Message(io.EOF); got != "EOF" {
		t.Errorf("a plain error printed %q", got)
	}
}
