package gostorm_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/gostorm/gostorm"

// allowedWithoutCaller names the declarations the production tree keeps
// although no non-test file uses them. There are exactly two reasons.
var allowedWithoutCaller = map[string]bool{
	// The tests of eight packages share it, and Go has no cross-package
	// test files.
	"internal/core.MustExplore": true,
	// vNext's own production loop: the timers the harness disables
	// (DisableTimer, the paper's §3.3 accommodation), kept for fidelity to
	// the system under test.
	"internal/vnext.ExtentManager.Start": true,
	"internal/vnext.ExtentManager.Stop":  true,
}

// moduleLoader type-checks the module's packages from their non-test
// source, with the build tags go/build picks, and takes the standard
// library from export data (importer.Default, which asks the go tool).
// bench/ is a module of its own whose import paths extend this module's,
// so one path-to-directory map covers both.
type moduleLoader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

// loadModule type-checks every directory of the tree that holds non-test
// Go files.
func loadModule(t *testing.T) *moduleLoader {
	t.Helper()
	l := &moduleLoader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "." {
			l.dirs[modulePath] = path
			return nil
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		l.dirs[modulePath+"/"+filepath.ToSlash(path)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		var noGo *build.NoGoError
		if _, err := l.Import(path); err != nil && !errors.As(err, &noGo) {
			t.Fatal(err)
		}
	}
	if len(l.pkgs) < 20 {
		t.Fatalf("only %d packages type-checked", len(l.pkgs))
	}
	return l
}

// Import checks a module package from source (once) and hands every other
// path to the standard-library importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}

// TestProductionCodeHasProductionCallers keeps test seams and orphans out
// of the production tree, the way TestAPISurfaceLocked keeps the public
// surface: every top-level function, method, type, const and var of
// internal/ and cmd/, and every unexported one of the root package, must
// be used by some non-test file of the module, bench/ or examples/ — a
// use inside its own declaration does not count. A helper that only a
// package's tests call belongs in its _test.go files.
//
// Exempt by rule: the root package's exported API and the methods of the
// internal/core types it aliases (api.txt governs both), and a method that
// satisfies an interface (see interfaceMethods). Exempt by name:
// allowedWithoutCaller.
func TestProductionCodeHasProductionCallers(t *testing.T) {
	l := loadModule(t)
	root := l.pkgs[modulePath]

	// api.txt governs the internal/core types the root package aliases.
	aliased := map[*types.TypeName]bool{}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				aliased[named.Origin().Obj()] = true
			}
		}
	}
	satisfies := interfaceMethods(t, l)

	uses := map[types.Object][]token.Pos{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		uses[obj] = append(uses[obj], id.Pos())
	}

	var unused []string
	seen := map[string]bool{}
	checked := 0
	check := func(key string, obj types.Object, decl ast.Node) {
		checked++
		used := false
		for _, p := range uses[obj] {
			used = used || p < decl.Pos() || p >= decl.End()
		}
		if allowedWithoutCaller[key] {
			seen[key] = true
			if used {
				t.Errorf("%s is allowlisted but now has a caller: take it off allowedWithoutCaller", key)
			}
			return
		}
		if !used {
			pos := l.fset.Position(decl.Pos())
			unused = append(unused, fmt.Sprintf("%s (%s:%d)", key, pos.Filename, pos.Line))
		}
	}
	for path, pkg := range l.pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		isRoot := rel == ""
		if !isRoot && !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		prefix := rel + "."
		if isRoot {
			prefix = ""
		}
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := l.info.Defs[d.Name].(*types.Func)
					name := d.Name.Name
					if d.Recv != nil {
						recv := receiverType(fn)
						if aliased[recv.Obj()] || satisfies[fn] || isRoot && recv.Obj().Exported() && d.Name.IsExported() {
							continue
						}
						name = recv.Obj().Name() + "." + name
					} else if name == "init" || name == "_" || name == "main" && pkg.Name() == "main" || isRoot && d.Name.IsExported() {
						continue
					}
					check(prefix+name, fn, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						case *ast.ValueSpec:
							names = sp.Names
						}
						for _, n := range names {
							if n.Name != "_" && !(isRoot && n.IsExported()) {
								check(prefix+n.Name, l.info.Defs[n], spec)
							}
						}
					}
				}
			}
		}
	}
	for key := range allowedWithoutCaller {
		if !seen[key] {
			t.Errorf("%s is allowlisted but not declared: take it off allowedWithoutCaller", key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d declaration(s) have no caller outside tests: delete them, or move them into their package's _test.go files:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	t.Logf("%d packages type-checked, %d declarations checked", len(l.pkgs), checked)
}

// receiverType returns the named type (its generic origin) a method is
// declared on.
func receiverType(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named).Origin()
}

// errorsInterfaces are the literal interfaces errors.Is, errors.As and
// errors.Unwrap look for inside their bodies, where export data cannot
// show them.
const errorsInterfaces = `package errors
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// interfaceMethods returns every method that satisfies an interface: a
// named type of the module (a non-generic one, or an instantiation the
// module spells), or a pointer to it, implements an interface that
// declares the method, and the method, its own or promoted from an
// embedded field, is what answers it. The interfaces are the literal and
// named ones the module spells, the named ones of every package it imports
// (fmt.Stringer, json.Marshaler, http.Handler, ... are satisfied without a
// call in sight), error, and errorsInterfaces.
func interfaceMethods(t *testing.T, l *moduleLoader) map[types.Object]bool {
	t.Helper()
	f, err := parser.ParseFile(l.fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := new(types.Config).Check("errors", l.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interfaces by their first method's name: an implementer has it.
	byName := map[string][]*types.Interface{}
	var candidates []types.Type
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			if it.NumMethods() > 0 {
				byName[it.Method(0).Name()] = append(byName[it.Method(0).Name()], it)
			}
			return
		}
		if n, ok := typ.(*types.Named); ok && n.Obj().Pkg() != nil && l.pkgs[n.Obj().Pkg().Path()] != nil {
			candidates = append(candidates, n)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range l.info.Types {
		if n, ok := tv.Type.(*types.Named); tv.IsType() && (!ok || n.TypeArgs().Len() > 0) {
			add(tv.Type) // literal types and instantiations
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				add(n)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	visit(errs)

	satisfied := map[types.Object]bool{}
	for _, typ := range candidates {
		ptr := types.NewPointer(typ)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byName[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					satisfied[ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return satisfied
}
