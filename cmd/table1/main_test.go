package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRowsMatchGolden pins Table 1 apart from its line counts, which every
// edit moves: each row's name, #B, #M, #ST and #AH, tab-separated, must
// match its line of testdata/table1.golden, every machine must report a
// state, and every source path the row names must still be there to count.
func TestRowsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "table1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	rs := rows()
	if len(rs) != len(want) {
		t.Fatalf("%d rows, the golden has %d", len(rs), len(want))
	}
	for i, r := range rs {
		t.Run(r.name, func(t *testing.T) {
			machines, states, handlers := r.machines()
			if got := fmt.Sprintf("%s\t%d\t%d\t%d\t%d", r.name, r.bugs, machines, states, handlers); got != want[i] {
				t.Errorf("row %q, golden %q", got, want[i])
			}
			for _, m := range r.meta {
				if m.States == 0 {
					t.Errorf("machine %s reports no states", m.Machine)
				}
			}
			for _, paths := range [][]string{r.system, r.harness} {
				if n, err := countLoC("../..", paths); err != nil || n == 0 {
					t.Errorf("counting %v: %d lines, %v", paths, n, err)
				}
			}
		})
	}
}

func TestCountLoC(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package p\n\nfunc A() {}\n") // 2 non-blank lines
	write("a_test.go", "package p\n\nfunc TestA() {}\n")
	write("b.txt", "not go\n")

	n, err := countLoC(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("countLoC = %d, want 2 (test files and non-Go files excluded)", n)
	}

	// A single file path counts just that file.
	n, err = countLoC(dir, []string{"a.go"})
	if err != nil || n != 2 {
		t.Fatalf("file count = %d, %v", n, err)
	}

	if _, err := countLoC(dir, []string{"missing"}); err == nil {
		t.Fatal("missing path should error")
	}
}
