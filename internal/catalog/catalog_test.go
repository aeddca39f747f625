package catalog

import (
	"strings"
	"testing"
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
