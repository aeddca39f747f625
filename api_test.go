package gostorm_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// updateAPI regenerates the golden API surface:
//
//	go test -run TestAPISurfaceLocked -update .
var updateAPI = flag.Bool("update", false, "rewrite api.txt with the current public surface")

// publicAPISurface renders every exported top-level identifier of the
// root package (non-test files), one canonical line each, sorted. Struct
// types include their exported field lists; an alias of an internal/core
// struct adds one "field" line per exported field of the aliased type, and
// an alias of an internal/core interface one "method" line per method and
// one "embed" line per embedded interface, so a changed field or method
// breaks the lock exactly like a changed function signature.
func publicAPISurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	types := coreTypes(t, fset)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	ws := regexp.MustCompile(`\s+`)
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(ws.ReplaceAllString(buf.String(), " "))
	}
	var lines []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				// Methods are part of the surface too: include them when
				// the receiver's base type name is exported.
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue
				}
				fn := *d
				fn.Body = nil
				fn.Doc = nil
				lines = append(lines, render(&fn))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						ts := *sp
						ts.Doc = nil
						ts.Comment = nil
						if st, ok := ts.Type.(*ast.StructType); ok {
							ts.Type = exportedFieldsOnly(st)
						}
						lines = append(lines, "type "+render(&ts))
						if !ts.Assign.IsValid() {
							continue
						}
						switch ct := types[coreAliasTarget(ts.Type)].(type) {
						case *ast.StructType:
							for _, f := range ct.Fields.List {
								field := render(f.Type)
								if f.Tag != nil {
									field += " " + f.Tag.Value
								}
								if len(f.Names) == 0 { // embedded
									lines = append(lines, "field "+sp.Name.Name+"."+field)
								}
								for _, n := range f.Names {
									lines = append(lines, "field "+sp.Name.Name+"."+n.Name+" "+field)
								}
							}
						case *ast.InterfaceType:
							for _, m := range ct.Methods.List {
								if len(m.Names) == 0 {
									lines = append(lines, "embed "+sp.Name.Name+"."+render(m.Type))
								}
								for _, n := range m.Names {
									sig := strings.TrimPrefix(render(m.Type), "func")
									lines = append(lines, "method "+sp.Name.Name+"."+n.Name+sig)
								}
							}
						}
					case *ast.ValueSpec:
						exported := false
						for _, n := range sp.Names {
							if n.IsExported() {
								exported = true
							}
						}
						if !exported {
							continue
						}
						vs := *sp
						vs.Doc = nil
						vs.Comment = nil
						lines = append(lines, d.Tok.String()+" "+render(&vs))
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// coreTypes parses internal/core's non-test files and returns its exported
// struct types by name, reduced to their exported fields, and its exported
// interface types.
func coreTypes(t *testing.T, fset *token.FileSet) map[string]ast.Expr {
	t.Helper()
	dir := filepath.Join("internal", "core")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]ast.Expr{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				if !ts.Name.IsExported() {
					continue
				}
				switch tt := ts.Type.(type) {
				case *ast.StructType:
					types[ts.Name.Name] = exportedFieldsOnly(tt)
				case *ast.InterfaceType:
					types[ts.Name.Name] = tt
				}
			}
		}
	}
	return types
}

// coreAliasTarget returns the internal/core type name an alias's right-hand
// side names (core.X or core.X[...]), or "" for anything else.
func coreAliasTarget(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" {
			return sel.Sel.Name
		}
	}
	return ""
}

// exportedReceiver reports whether a method receiver's base type name is
// exported (the method then belongs to the public surface).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) != 1 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// exportedFieldsOnly strips unexported fields from a struct type so the
// golden surface records only what importers can see.
func exportedFieldsOnly(st *ast.StructType) *ast.StructType {
	out := &ast.StructType{Struct: st.Struct, Fields: &ast.FieldList{}}
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			// Embedded field: visible iff its type name is exported.
			t := f.Type
			if se, ok := t.(*ast.StarExpr); ok {
				t = se.X
			}
			if id, ok := t.(*ast.Ident); ok && id.IsExported() {
				out.Fields.List = append(out.Fields.List, f)
			}
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			f2 := *f
			f2.Names = names
			f2.Doc = nil
			f2.Comment = nil
			out.Fields.List = append(out.Fields.List, &f2)
		}
	}
	return out
}

// TestAPISurfaceLocked is the API lock: the root package's exported
// surface must match the committed api.txt byte for byte. An intended
// API change is a deliberate act — regenerate the golden file with
// `go test -run TestAPISurfaceLocked -update .` and commit the diff; an
// unintended one fails the build here. Together with
// TestExamplesUsePublicAPIOnly and the examples building under
// `go build ./...` this is the proof the public API boundary is real.
func TestAPISurfaceLocked(t *testing.T) {
	got := strings.Join(publicAPISurface(t), "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("api.txt rewritten")
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("api.txt missing (generate with `go test -run TestAPISurfaceLocked -update .`): %v", err)
	}
	if string(want) == got {
		return
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotSet := map[string]bool{}
	for _, l := range gotLines {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range wantLines {
		wantSet[l] = true
	}
	var diff []string
	for _, l := range gotLines {
		if !wantSet[l] {
			diff = append(diff, "+ "+l)
		}
	}
	for _, l := range wantLines {
		if !gotSet[l] {
			diff = append(diff, "- "+l)
		}
	}
	t.Fatalf("public API surface changed (run `go test -run TestAPISurfaceLocked -update .` if intended):\n%s",
		strings.Join(diff, "\n"))
}

// TestDocsStateTheDesignOnce keeps the prose the way the API lock keeps the
// surface. doc.go is the one narrative of how the engine works now and
// README.md is a front page that points at it: the README has a line budget
// — a section that wants more belongs in doc.go or bench/README.md — and
// neither file carries per-PR history, which lives in CHANGES.md.
func TestDocsStateTheDesignOnce(t *testing.T) {
	const readmeBudget = 250
	perPR := regexp.MustCompile(`\bPR[ -]?#?[0-9]`)
	for _, name := range []string{"README.md", "doc.go"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if name == "README.md" && len(lines) > readmeBudget {
			t.Errorf("README.md is %d lines, budget %d: move the design to doc.go and the figures to bench/ or CHANGES.md", len(lines), readmeBudget)
		}
		for i, l := range lines {
			if perPR.MatchString(l) {
				t.Errorf("%s:%d names a PR; history belongs in CHANGES.md: %s", name, i+1, strings.TrimSpace(l))
			}
		}
	}
}

// TestExamplesUsePublicAPIOnly enforces the public-only import rule on
// the examples and the CLIs (their tests may reach internal/): every such
// program must compile against nothing but the public package, the
// standard library and the module packages listed for it — which is what
// makes them proof that the API boundary is real. The plan flags systest
// and gostormd share (cmd/internal/runflags) obey the rule themselves,
// table2 and the agent print their errors through them too, and the fleet
// binaries add only the control plane, internal/dist.
func TestExamplesUsePublicAPIOnly(t *testing.T) {
	const (
		module   = "github.com/gostorm/gostorm"
		runflags = module + "/cmd/internal/runflags"
		dist     = module + "/internal/dist"
	)
	fset := token.NewFileSet()
	found := 0
	for root, allowed := range map[string][]string{
		"examples":              nil,
		"cmd/table2":            {runflags},
		"cmd/internal/runflags": nil,
		"cmd/systest":           {runflags},
		"cmd/gostormd":          {runflags, dist},
		"cmd/gostorm-agent":     {runflags, dist},
	} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			found++
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == module || slices.Contains(allowed, p) {
					continue
				}
				if strings.HasPrefix(p, module+"/") {
					return fmt.Errorf("%s imports %s — it may import only %s and %v", path, p, module, allowed)
				}
				// Anything else must be the standard library: no dots in the
				// first path element.
				if first := strings.SplitN(p, "/", 2)[0]; strings.Contains(first, ".") {
					return fmt.Errorf("%s imports non-stdlib package %s", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	if found < 9 {
		t.Fatalf("only %d files checked; expected the four example programs, the four CLIs and the plan flags", found)
	}
}
