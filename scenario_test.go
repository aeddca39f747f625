package gostorm_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gostorm/gostorm"
	"github.com/gostorm/gostorm/internal/catalog"
	"github.com/gostorm/gostorm/internal/core"
)

// TestScenarioOptionsCoverCatalog guards the public scenario surface
// against drifting from the catalog. Scenario.Options translates the two
// settings catalog entries recommend — MaxSteps and Iterations — so an entry
// that sets any other core.Options field fails here (teach Scenario.Options
// the field in the same change), and what Resolve derives from the public
// options must be what the engine derives from the entry directly.
func TestScenarioOptionsCoverCatalog(t *testing.T) {
	entries := catalog.All()
	scenarios := gostorm.Scenarios()
	if len(entries) != len(scenarios) {
		t.Fatalf("Scenarios() returns %d entries, catalog has %d", len(scenarios), len(entries))
	}
	for i, sc := range scenarios {
		e := entries[i]
		if sc.Name != e.Name || sc.About != e.About {
			t.Fatalf("scenario %d: %q/%q vs catalog %q/%q", i, sc.Name, sc.About, e.Name, e.About)
		}
		translated := core.Options{MaxSteps: e.Options.MaxSteps, Iterations: e.Options.Iterations}
		if !reflect.DeepEqual(e.Options, translated) {
			t.Fatalf("%s: the catalog entry recommends more than MaxSteps and Iterations, which is all Scenario.Options translates: %+v",
				sc.Name, e.Options)
		}
		test := sc.Test()
		cfg, err := gostorm.Resolve(test, sc.Options()...)
		if err != nil {
			t.Fatalf("%s: Resolve: %v", sc.Name, err)
		}
		want, err := e.Options.Resolve(test)
		if err != nil {
			t.Fatalf("%s: the catalog entry's options do not resolve: %v", sc.Name, err)
		}
		f := want.EffectiveFaults(test)
		want.Faults = &f
		if !reflect.DeepEqual(cfg, want) {
			t.Fatalf("%s: resolved config diverges from catalog recommendation:\nresolved: %+v\ncatalog:  %+v",
				sc.Name, cfg, want)
		}
	}
}

// TestScenarioByName covers lookup and the catalog listing.
func TestScenarioByName(t *testing.T) {
	sc, err := gostorm.ScenarioByName("replsys-safety")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "replsys-safety" || sc.Test().Name == "" {
		t.Fatalf("scenario: %+v", sc)
	}
	if _, err := gostorm.ScenarioByName("nope"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
	if !strings.Contains(gostorm.DescribeScenarios(), "replsys-safety") {
		t.Fatal("DescribeScenarios lacks scenarios")
	}
}
