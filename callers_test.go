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
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/gostorm/gostorm"

// allowedWithoutCaller names the declarations the production tree keeps
// although no non-test file uses them, and the fields it keeps although no
// non-test file sets them. There are exactly three reasons.
var allowedWithoutCaller = map[string]bool{
	// The tests of eight packages share it, and Go has no cross-package
	// test files.
	"internal/core.MustExplore": true,
	// vNext's own production loop: the timers the harness disables
	// (DisableTimer, the paper's §3.3 accommodation), kept for fidelity to
	// the system under test.
	"internal/vnext.ExtentManager.Start": true,
	"internal/vnext.ExtentManager.Stop":  true,
	// A test input that sizes the model past the catalog's configuration.
	"internal/fabric.Config.Replicas":    true, // TestLargerReplicaSet: five replicas
	"internal/fabric.Config.WriteQuorum": true, // TestLargerReplicaSet: a quorum of three
	// TestReplicasAreAscending: a target of 100 keeps the request open
	// while every sync is counted.
	"internal/replsys.Config.ReplicaTarget": true,
	// The stress tests (TestStressManyNodes, TestStressManyExtents*): the
	// paper's stress runs manage more nodes and extents at once.
	"internal/vnext/harness.HarnessConfig.Nodes":   true,
	"internal/vnext/harness.HarnessConfig.Extents": true,
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
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
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
// package's tests call belongs in its _test.go files. Struct fields are
// held to the same rule by checkFields.
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
	fields := checkFields(t, l, aliased, seen)
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
	t.Logf("%d packages type-checked, %d declarations and %d fields checked", len(l.pkgs), checked, fields)
}

// checkFields holds struct fields to the rule declarations keep: every
// non-embedded field of a struct type that a non-test file of internal/ or
// cmd/ declares must be read by non-test code, and one of basic, func,
// slice, map, pointer, chan or interface type must also be set by it (see
// classifyFields). A struct or array field is exempt from the second half:
// code uses its zero value in place (a sync.Mutex, an arena). Exempt by
// rule: the fields of the internal/core types the root package aliases
// (api.txt governs them) and a field with a json tag (the encoder reads
// it, the decoder sets it). Exempt by name: allowedWithoutCaller, which
// also fails for an entry that code now both reads and sets. It returns
// how many fields it checked.
func checkFields(t *testing.T, l *moduleLoader, aliased map[*types.TypeName]bool, seen map[string]bool) int {
	t.Helper()
	uses := map[*types.Var]*fieldUse{}
	for _, files := range l.files {
		classifyFields(l.info, files, uses)
	}
	var findings []string
	checked := 0
	for path := range l.pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, f := range l.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn := l.info.Defs[ts.Name].(*types.TypeName)
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok || aliased[tn] {
					return true
				}
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if v.Embedded() {
						continue
					}
					if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
						continue
					}
					checked++
					key := rel + "." + tn.Name() + "." + v.Name()
					u := uses[v]
					if u == nil {
						u = &fieldUse{}
					}
					needsSet := true
					switch v.Type().Underlying().(type) {
					case *types.Struct, *types.Array:
						needsSet = false
					}
					if allowedWithoutCaller[key] {
						seen[key] = true
						if u.read && (u.set || !needsSet) {
							t.Errorf("%s is allowlisted but non-test code now reads and sets it: take it off allowedWithoutCaller", key)
						}
						continue
					}
					pos := l.fset.Position(v.Pos())
					switch {
					case !u.read:
						findings = append(findings, fmt.Sprintf("%s is never read (%s:%d)", key, pos.Filename, pos.Line))
					case needsSet && !u.set:
						findings = append(findings, fmt.Sprintf("%s is never set (%s:%d)", key, pos.Filename, pos.Line))
					}
				}
				return true
			})
		}
	}
	sort.Strings(findings)
	if len(findings) > 0 {
		t.Errorf("%d field(s) fail the field rule outside tests: delete a field nothing reads, inline the value of one nothing sets:\n\t%s",
			len(findings), strings.Join(findings, "\n\t"))
	}
	return checked
}

// fieldUse says how non-test code uses one struct field.
type fieldUse struct{ read, set bool }

// classifyFields records in uses how files use every struct field they
// name (a field of a generic type under its origin).
//
// Read: any use of the field's value. A composite-literal key and the
// direct left side of = (or of a range clause's =) are not reads; a
// method call on the field, &x.f, x.f[i] = v, x.f += v and x.f++ are.
//
// Set: a keyed or positional composite-literal element, an assignment's
// left side at any depth (x.f.g = v and x.f[i] = v set f), ++ or --, &x.f,
// a pointer-receiver method called on (or taken as a value of) an
// addressable field, and a range clause's assigned key or value.
func classifyFields(info *types.Info, files []*ast.File, uses map[*types.Var]*fieldUse) {
	use := func(obj types.Object) *fieldUse {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		v = v.Origin()
		if uses[v] == nil {
			uses[v] = &fieldUse{}
		}
		return uses[v]
	}
	notRead := map[*ast.Ident]bool{}
	// setSpine marks every field selected along the path an assignment
	// stores through: x.f.g[i] sets g and f.
	setSpine := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.SelectorExpr:
				if u := use(info.Uses[x.Sel]); u != nil {
					u.set = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	// assigned marks the targets of a plain =: stored, not read.
	assigned := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			notRead[sel.Sel] = true
		}
		setSpine(e)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				typ := tv.Type
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem() // an elided &T{...} inside a literal
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						id := kv.Key.(*ast.Ident)
						notRead[id] = true
						use(info.Uses[id]).set = true
					} else {
						use(st.Field(i)).set = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if n.Tok == token.ASSIGN {
						assigned(lhs)
					} else {
						setSpine(lhs)
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							assigned(e)
						}
					}
				}
			case *ast.IncDecStmt:
				setSpine(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setSpine(n.X)
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.MethodVal {
					return true
				}
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					setSpine(n.X)
				}
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !notRead[id] {
				if u := use(info.Uses[id]); u != nil {
					u.read = true
				}
			}
			return true
		})
	}
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

// classifierSource holds one field per use form classifyFields knows;
// each field's name says how it is used.
const classifierSource = `package p

type counter int

func (counter) get() int { return 0 }
func (c *counter) inc()  { *c++ }

type inner struct{ v int }

type T struct {
	keyed                      int
	assigned, read, unused     int
	valueMethod, pointerMethod counter
	pointerMethodValue         counter
	addressed, indexStored     []int
	opAssigned, incremented    int
	deep                       *inner
	rangeKey, rangeValue       int
	generic                    G[int]
}

type P struct{ first, second int }

type G[E any] struct{ elem E }

func use(x *T, s []int) {
	_ = T{keyed: 1}
	_ = P{1, 2}
	x.assigned = 1
	_ = x.read
	_ = x.valueMethod.get()
	x.pointerMethod.inc()
	_ = x.pointerMethodValue.inc
	_ = &x.addressed
	x.indexStored[0] = 1
	x.opAssigned += 1
	x.incremented++
	x.deep.v = 1
	for x.rangeKey, x.rangeValue = range s {
	}
	x.generic.elem = 1
}
`

// TestFieldClassifier holds classifyFields to the field rule on an
// in-memory package: one field per use form, each classified as read,
// set, both or neither.
func TestFieldClassifier(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", classifierSource, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	uses := map[*types.Var]*fieldUse{}
	classifyFields(info, []*ast.File{f}, uses)

	want := map[string]fieldUse{
		"T.keyed":              {set: true},
		"P.first":              {set: true},
		"P.second":             {set: true},
		"T.assigned":           {set: true},
		"T.read":               {read: true},
		"T.unused":             {},
		"T.valueMethod":        {read: true},
		"T.pointerMethod":      {read: true, set: true},
		"T.pointerMethodValue": {read: true, set: true},
		"T.addressed":          {read: true, set: true},
		"T.indexStored":        {read: true, set: true},
		"T.opAssigned":         {read: true, set: true},
		"T.incremented":        {read: true, set: true},
		"T.deep":               {read: true, set: true},
		"inner.v":              {set: true},
		"T.rangeKey":           {set: true},
		"T.rangeValue":         {set: true},
		"T.generic":            {read: true, set: true},
		"G.elem":               {set: true},
	}
	got := map[string]fieldUse{}
	for _, name := range pkg.Scope().Names() {
		st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			key := name + "." + st.Field(i).Name()
			if _, ok := want[key]; !ok {
				t.Errorf("%s: no expectation", key)
				continue
			}
			var u fieldUse
			if p := uses[st.Field(i)]; p != nil {
				u = *p
			}
			got[key] = u
		}
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		t.Run(key, func(t *testing.T) {
			g, ok := got[key]
			if !ok {
				t.Fatalf("%s: not declared in the source", key)
			}
			if g != want[key] {
				t.Errorf("%s classified %+v, want %+v", key, g, want[key])
			}
		})
	}
	if len(got) != len(want) {
		t.Errorf("checked %d fields, want %d", len(got), len(want))
	}
}
