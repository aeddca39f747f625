package gostorm_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciTestFlag finds a -run, -bench or -fuzz flag in a workflow command and
// its pattern, quoted or bare. -benchtime and -benchmem do not match.
var ciTestFlag = regexp.MustCompile(`-(run|bench|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// testFunc finds a top-level test, benchmark, fuzz target or example.
var testFunc = regexp.MustCompile(`(?m)^func ((Test|Benchmark|Fuzz|Example)\w*)\(`)

// TestCIRegexesNameExistingTests: every alternative of a -run, -bench or
// -fuzz pattern in the CI workflow matches a function `go test` would
// select with it somewhere in the tree (-run: tests, fuzz targets and
// examples; -bench: benchmarks; -fuzz: fuzz targets). A test renamed or
// moved without its CI step then fails here instead of leaving the step
// running nothing. The pattern '^$' selects nothing on purpose.
func TestCIRegexesNameExistingTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // by kind: Test, Benchmark, Fuzz, Example
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs[m[2]] = append(funcs[m[2]], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{
		"run":   {"Test", "Fuzz", "Example"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}
	checked := 0
	for _, m := range ciTestFlag.FindAllStringSubmatch(string(ci), -1) {
		flag, pattern := m[1], m[2]+m[3]+m[4]
		if pattern == "^$" {
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s %q: %v", flag, alt, err)
				continue
			}
			checked++
			if !matchesAny(re, funcs, kinds[flag]) {
				t.Errorf("-%s %q matches no %s function in any _test.go", flag, alt, strings.Join(kinds[flag], "/"))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern in the workflow")
	}
	t.Logf("%d pattern alternatives checked", checked)
}

func matchesAny(re *regexp.Regexp, funcs map[string][]string, kinds []string) bool {
	for _, k := range kinds {
		for _, name := range funcs[k] {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
