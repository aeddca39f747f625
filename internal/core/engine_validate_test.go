package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// assertConfigError asserts err is a *ConfigError attributing the given
// field with a reason containing want.
func assertConfigError(t *testing.T, err error, field, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("no error; want a *ConfigError on %s mentioning %q", field, want)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T) is not a *ConfigError", err, err)
	}
	if ce.Field != field {
		t.Fatalf("ConfigError.Field = %q, want %q (reason: %s)", ce.Field, field, ce.Reason)
	}
	if !strings.Contains(ce.Reason, want) {
		t.Fatalf("ConfigError.Reason %q lacks %q", ce.Reason, want)
	}
}

// resolved is Options.Resolve for tests whose options are statically valid.
func resolved(o Options) Options {
	o, err := o.Resolve(Test{})
	if err != nil {
		panic(err)
	}
	return o
}

// TestOptionsValidation: negative bounds and budgets are rejected up
// front with typed, field-attributed ConfigErrors instead of being
// silently reinterpreted as defaults (which used to mask caller bugs) or
// surfaced as panics (which forced callers to recover).
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name  string
		o     Options
		field string
		want  string
	}{
		{"negative iterations", Options{Iterations: -1}, "Options.Iterations", "must be non-negative, got -1"},
		{"negative max steps", Options{MaxSteps: -5}, "Options.MaxSteps", "must be non-negative, got -5"},
		{"negative workers", Options{Workers: -2}, "Options.Workers", "must be non-negative, got -2"},
		{"negative crash budget", Options{Faults: &Faults{MaxCrashes: -1}}, "Options.Faults.MaxCrashes", "must be non-negative, got -1"},
		{"negative drop budget", Options{Faults: &Faults{MaxDrops: -4}}, "Options.Faults.MaxDrops", "must be non-negative, got -4"},
		{"negative duplicate budget", Options{Faults: &Faults{MaxDuplicates: -9}}, "Options.Faults.MaxDuplicates", "must be non-negative, got -9"},
		{"negative torn crash budget", Options{Faults: &Faults{MaxTornCrashes: -2}}, "Options.Faults.MaxTornCrashes", "must be non-negative, got -2"},
		{"unknown portfolio member", Options{Portfolio: []string{"random", "quantum"}}, "Options.Portfolio[1]", `unknown scheduler "quantum"`},
		{"empty portfolio member", Options{Portfolio: []string{"random", ""}}, "Options.Portfolio[1]", `unknown scheduler ""`},
		{"unknown scheduler", Options{Scheduler: "quantum"}, "Options.Scheduler", `unknown scheduler "quantum"`},
		// The plan's positions and the one past its last must fit an int64.
		{"plan of 2^63-1 positions", Options{Iterations: math.MaxInt64}, "Options.Iterations", "must be at most 9223372036854775806 for a plan of 1 member(s)"},
		{"portfolio plan of 2^63 positions", Options{Portfolio: []string{"random", "pct"}, Iterations: 1 << 62}, "Options.Iterations", "must be at most 4611686018427387903 for a plan of 2 member(s)"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Run("Explore", func(t *testing.T) {
				_, err := Explore(fixtureTest(), c.o)
				assertConfigError(t, err, c.field, c.want)
			})
			t.Run("Explore/portfolio", func(t *testing.T) {
				o := c.o
				if o.Scheduler != "" {
					t.Skip("a portfolio run ignores Options.Scheduler")
				}
				if len(o.Portfolio) == 0 {
					o.Portfolio = []string{"random"}
				}
				_, err := Explore(fixtureTest(), o)
				assertConfigError(t, err, c.field, c.want)
			})
			t.Run("ExploreShard", func(t *testing.T) {
				_, err := ExploreShard(fixtureTest(), c.o, Shard{To: 1})
				assertConfigError(t, err, c.field, c.want)
			})
			t.Run("Resolve", func(t *testing.T) {
				// The one validate-and-default step rejects it itself — the
				// scheduler name included — so a configuration viewer and a
				// run cannot disagree.
				_, err := c.o.Resolve(Test{})
				assertConfigError(t, err, c.field, c.want)
			})
			t.Run("Replay", func(t *testing.T) {
				tr := newTrace("trace-fixture", "random", 1, Faults{}, nil)
				_, err := Replay(fixtureTest(), tr, c.o)
				assertConfigError(t, err, c.field, c.want)
			})
		})
	}
}

// TestUnknownSchedulerIsConfigError: the classic misconfiguration — a
// scheduler name that is not registered — comes back as a ConfigError
// naming the field and listing the known schedulers, not as a panic.
func TestUnknownSchedulerIsConfigError(t *testing.T) {
	_, err := Explore(fixtureTest(), Options{Scheduler: "quantum", Iterations: 1})
	assertConfigError(t, err, "Options.Scheduler", "unknown scheduler")
	if !strings.Contains(err.Error(), "random") {
		t.Fatalf("error does not list known schedulers: %v", err)
	}
}

// TestTestFaultsValidation: a negative budget declared on the Test itself
// fails as loudly as one on Options — it would otherwise silently disable
// the fault plane.
func TestTestFaultsValidation(t *testing.T) {
	bad := fixtureTest()
	bad.Faults = Faults{MaxCrashes: -1}
	want := "must be non-negative, got -1"

	if _, err := Explore(bad, Options{Iterations: 1}); err != nil {
		assertConfigError(t, err, "Test.Faults.MaxCrashes", want)
	} else {
		t.Fatal("Explore accepted a negative Test.Faults budget")
	}
	if _, err := Explore(bad, Options{Iterations: 1, Portfolio: []string{"random"}}); err != nil {
		assertConfigError(t, err, "Test.Faults.MaxCrashes", want)
	} else {
		t.Fatal("portfolio Explore accepted a negative Test.Faults budget")
	}
	if _, err := Replay(bad, newTrace("trace-fixture", "random", 1, Faults{}, nil), Options{}); err != nil {
		assertConfigError(t, err, "Test.Faults.MaxCrashes", want)
	} else {
		t.Fatal("Replay accepted a negative Test.Faults budget")
	}
}

// TestMustExplorePanicsOnConfigError: the internal convenience wrapper
// keeps the fail-fast behavior for benchmarks and tests whose options are
// statically known; the panic payload is the typed error.
func TestMustExplorePanicsOnConfigError(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic")
		}
		err, ok := p.(error)
		if !ok {
			t.Fatalf("panicked with %T, want error", p)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("panic payload %v is not a *ConfigError", err)
		}
	}()
	MustExplore(fixtureTest(), Options{Iterations: -1})
}

// TestResolveAcceptsZeroAndPositive: the zero value and ordinary positive
// configurations pass, come back complete, and resolve to themselves.
func TestResolveAcceptsZeroAndPositive(t *testing.T) {
	for _, o := range []Options{
		{},
		{Iterations: 5, MaxSteps: 100, Workers: 2,
			Faults: &Faults{MaxCrashes: 1, MaxDrops: 2, MaxDuplicates: 3}},
		{Portfolio: []string{"random", "pct", "random"}},
	} {
		r, err := o.Resolve(Test{})
		if err != nil {
			t.Fatalf("valid options rejected: %v", err)
		}
		if r.Scheduler == "" || r.Iterations <= 0 || r.MaxSteps <= 0 || r.Workers <= 0 {
			t.Fatalf("Resolve(%+v) left a default unapplied: %+v", o, r)
		}
		if o.Workers > 0 && r.Workers != o.Workers {
			t.Fatalf("Resolve(%+v).Workers = %d, want %d", o, r.Workers, o.Workers)
		}
		if again, err := r.Resolve(Test{}); err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("resolved options do not resolve to themselves: %+v -> %+v, %v", r, again, err)
		}
	}
}

// TestRegisterSchedulerValidation: registration rejects names the rest of
// the surface cannot represent, nil constructors, and duplicates.
func TestRegisterSchedulerValidation(t *testing.T) {
	dummy := func() Scheduler { return NewRandomScheduler() }
	for _, c := range []struct {
		name     string
		newSched func() Scheduler
		want     string
	}{
		{"", dummy, "non-empty"},
		{"has space", dummy, "whitespace"},
		{"has,comma", dummy, "commas"},
		{"nil-new", nil, "non-nil"},
		{"random", dummy, "already registered"},
	} {
		err := RegisterScheduler(c.name, c.newSched)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("RegisterScheduler(%q) = %v, want error mentioning %q", c.name, err, c.want)
		}
	}
}
