package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkSource type-checks one in-memory file into a Pass, so the
// call-graph and go-statement resolution helpers can be tested directly —
// without routing through a fixture module and a golden file.
func checkSource(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var diags []Diagnostic
	return &Pass{
		Analyzer: &Analyzer{Name: "test"},
		Fset:     fset,
		Files:    []*ast.File{f},
		Info:     info,
		diags:    &diags,
	}
}

// reachableNames runs reachableFuncs and returns the sorted set of
// function names it marked.
func reachableNames(pass *Pass, prefixes ...string) map[string]bool {
	out := map[string]bool{}
	for obj := range reachableFuncs(pass, prefixes...) {
		out[obj.Name()] = true
	}
	return out
}

// TestReachableFuncsClosure pins the call-graph closure: methods called
// through a receiver, plain functions, and transitive chains are all
// pulled into the Query*-reachable set; unreachable siblings are not.
func TestReachableFuncsClosure(t *testing.T) {
	pass := checkSource(t, `package p

type E struct{}

func (e *E) Query()        { e.step() }
func (e *E) step()         { helper() }
func helper()              { deep() }
func deep()                {}
func (e *E) Build()        {}
func lonely()              {}
`)
	got := reachableNames(pass, "Query")
	for _, want := range []string{"Query", "step", "helper", "deep"} {
		if !got[want] {
			t.Errorf("reachableFuncs missed %s (got %v)", want, got)
		}
	}
	for _, banned := range []string{"Build", "lonely"} {
		if got[banned] {
			t.Errorf("reachableFuncs wrongly included %s", banned)
		}
	}
}

// TestReachableFuncsMultiPrefix checks seeding from several prefixes at
// once (the recoverhygiene/goroterm entry sets).
func TestReachableFuncsMultiPrefix(t *testing.T) {
	pass := checkSource(t, `package p

func QueryA()  { shared() }
func handleB() { shared() }
func ServeC()  {}
func shared()  {}
func other()   {}
`)
	got := reachableNames(pass, "Query", "handle", "Serve")
	for _, want := range []string{"QueryA", "handleB", "ServeC", "shared"} {
		if !got[want] {
			t.Errorf("missing %s in %v", want, got)
		}
	}
	if got["other"] {
		t.Errorf("other should not be reachable")
	}
}

// goBodies collects the resolved body for every go statement in the named
// function, using the same localFuncBindings + resolveGoBody pipeline the
// analyzers use.
func goBodies(t *testing.T, pass *Pass, funcName string) []*ast.BlockStmt {
	t.Helper()
	var out []*ast.BlockStmt
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName {
				continue
			}
			lits := localFuncBindings(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					out = append(out, resolveGoBody(pass, gs, lits))
				}
				return true
			})
		}
	}
	return out
}

// bodyContains reports whether the body's source interval contains the
// marker call `marker()`.
func bodyContains(pass *Pass, body *ast.BlockStmt, marker string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == marker {
				found = true
			}
		}
		return !found
	})
	return found
}

const resolveSrc = `package p

type W struct{}

func (w *W) loop()   { methodMarker() }
func pkgFunc()       { pkgMarker() }
func methodMarker()  {}
func pkgMarker()     {}
func litMarker()     {}
func reboundMarker() {}

func Launch(w *W) {
	go func() { litMarker() }()

	worker := func() { litMarker() }
	go worker()

	var vw func()
	vw = func() { reboundMarker() }
	go vw()

	go pkgFunc()

	go w.loop()
}
`

// TestResolveGoBody pins every resolution path a `go` statement can take:
// inline literal, worker := func(){} binding, assignment rebinding,
// package function, and the method-value form `go w.loop()`.
func TestResolveGoBody(t *testing.T) {
	pass := checkSource(t, resolveSrc)
	bodies := goBodies(t, pass, "Launch")
	if len(bodies) != 5 {
		t.Fatalf("want 5 go statements, got %d", len(bodies))
	}
	wantMarkers := []string{"litMarker", "litMarker", "reboundMarker", "pkgMarker", "methodMarker"}
	for i, marker := range wantMarkers {
		if !bodyContains(pass, bodies[i], marker) {
			t.Errorf("go statement %d: resolved body does not contain %s()", i, marker)
		}
	}
}

// TestResolveGoBodyUnresolvable: a callee from another package resolves to
// nil — callers decide whether nil means flag or trust.
func TestResolveGoBodyUnresolvable(t *testing.T) {
	pass := checkSource(t, `package p

import "strings"

func Launch(r *strings.Reader) {
	go r.UnreadByte()
}
`)
	bodies := goBodies(t, pass, "Launch")
	if len(bodies) != 1 || bodies[0] != nil {
		t.Fatalf("cross-package method should resolve to nil, got %v", bodies)
	}
}

// TestLocalFuncBindings covers the binding forms directly: :=, =, and var.
func TestLocalFuncBindings(t *testing.T) {
	pass := checkSource(t, `package p

func F() {
	a := func() {}
	var b = func() {}
	var c func()
	c = func() {}
	_, _, _ = a, b, c
}
`)
	var fd *ast.FuncDecl
	for _, decl := range pass.Files[0].Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == "F" {
			fd = d
		}
	}
	lits := localFuncBindings(pass, fd.Body)
	names := map[string]bool{}
	for obj := range lits {
		names[obj.Name()] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !names[want] {
			t.Errorf("binding %s not collected (got %v)", want, names)
		}
	}
}

// TestFuncDeclBodyResolvesMethods: funcDeclBody finds method bodies, the
// path `go w.loop()` resolution depends on.
func TestFuncDeclBodyResolvesMethods(t *testing.T) {
	pass := checkSource(t, resolveSrc)
	var loopObj *types.Func
	for id, obj := range pass.Info.Defs {
		if tf, ok := obj.(*types.Func); ok && id.Name == "loop" {
			loopObj = tf
		}
	}
	if loopObj == nil {
		t.Fatal("method loop not found in Defs")
	}
	body := funcDeclBody(pass, loopObj)
	if !bodyContains(pass, body, "methodMarker") {
		t.Errorf("funcDeclBody(loop) did not return the method body")
	}
	if strings.HasPrefix(loopObj.FullName(), "p.") {
		t.Errorf("loop should be a method, FullName %s", loopObj.FullName())
	}
}
