package catalog

import (
	"reflect"
	"strings"
	"testing"

	"github.com/gostorm/gostorm/internal/core"
)

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Fatalf("duplicate scenario name %q", e.Name)
		}
		seen[e.Name] = true
		if e.About == "" {
			t.Fatalf("scenario %q lacks a description", e.Name)
		}
		if e.Build == nil {
			t.Fatalf("scenario %q lacks a builder", e.Name)
		}
		if e.Expect != Clean && e.Expect != SeededBug {
			t.Fatalf("scenario %q states no expected verdict", e.Name)
		}
	}
}

func TestCatalogGet(t *testing.T) {
	if _, err := Get("mtable"); err != nil {
		t.Fatalf("known scenario not found: %v", err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
	if !strings.Contains(Describe(), "mtable") {
		t.Fatal("Describe lacks scenarios")
	}
}

// TestGetHandsOutCopies: what Get and All return is the caller's to change
// — every field, Options included — and the next Get answers as before.
// Entries are copied by value, so no entry's Options may hold a slice or a
// pointer, which a copy would share.
func TestGetHandsOutCopies(t *testing.T) {
	for _, want := range All() {
		if want.Options.Portfolio != nil || want.Options.Faults != nil {
			t.Fatalf("%s: Options holds a portfolio or a fault budget, which a copy of the entry would share", want.Name)
		}
		got, err := Get(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		got.Name, got.About, got.Expect, got.Build = "changed", "changed", "changed", nil
		got.Options.MaxSteps, got.Options.Iterations, got.Options.Scheduler = -1, -1, "changed"
		got.Options.Portfolio = append(got.Options.Portfolio, "changed")
		got.Options.Faults = &core.Faults{MaxCrashes: 9}
		again, err := Get(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if again.Name != want.Name || again.About != want.About || again.Expect != want.Expect ||
			again.Build == nil || !reflect.DeepEqual(again.Options, want.Options) {
			t.Fatalf("%s: a change to a returned entry reached the next Get: %+v", want.Name, again)
		}
	}
	all := All()
	all[0].Name = "changed"
	if All()[0].Name == "changed" {
		t.Fatal("a change to All's slice reached the next All")
	}
}
