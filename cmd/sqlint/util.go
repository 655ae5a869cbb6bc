package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// walkStack traverses the AST below root, calling fn with every node and
// the stack of its ancestors (outermost first, not including the node
// itself). Returning false from fn prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost function declaration or literal in
// the stack, and its body.
func enclosingFunc(stack []ast.Node) (ast.Node, *ast.BlockStmt) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f, f.Body
		case *ast.FuncLit:
			return f, f.Body
		}
	}
	return nil, nil
}

// localFuncBindings collects `name := func() {...}` (and `name = func()`,
// `var name = func()`) bindings below root, keyed by the bound object —
// so `go worker()` can be resolved to the literal's body. Reassignments
// keep the last literal seen in source order, matching how the worker
// pools in internal/core bind once and launch below.
func localFuncBindings(pass *Pass, root ast.Node) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	bind := func(id *ast.Ident, lit *ast.FuncLit) {
		if obj := pass.Info.Defs[id]; obj != nil {
			out[obj] = lit
		} else if obj := pass.Info.Uses[id]; obj != nil {
			out[obj] = lit
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if lit, ok := st.Rhs[i].(*ast.FuncLit); ok {
					bind(id, lit)
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) != len(st.Values) {
				return true
			}
			for i, id := range st.Names {
				if lit, ok := st.Values[i].(*ast.FuncLit); ok {
					bind(id, lit)
				}
			}
		}
		return true
	})
	return out
}

// funcDeclBody returns the body of the package-level declaration (function
// or method) of tf, or nil when tf is not declared in this package.
func funcDeclBody(pass *Pass, tf *types.Func) *ast.BlockStmt {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && obj == tf {
				return fd.Body
			}
		}
	}
	return nil
}

// resolveGoBody resolves the body a `go` statement will execute: an inline
// func literal, a local `worker := func() {...}` binding (looked up in
// localLits), a package-level function, or a method of a package-local
// type (the `go w.loop()` method-value form). Returns nil when the callee
// is declared outside this package — whole-program resolution is out of
// scope, and the caller decides what unresolved means.
func resolveGoBody(pass *Pass, gs *ast.GoStmt, localLits map[types.Object]*ast.FuncLit) *ast.BlockStmt {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if obj := pass.Info.Uses[fun]; obj != nil {
			if lit, ok := localLits[obj]; ok {
				return lit.Body
			}
			if tf, ok := obj.(*types.Func); ok {
				return funcDeclBody(pass, tf)
			}
		}
	case *ast.SelectorExpr:
		if tf, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return funcDeclBody(pass, tf)
		}
	}
	return nil
}

// reachableFuncs computes the functions of this package reachable from any
// method or function whose name starts with one of the prefixes, closed
// under intra-package calls.
func reachableFuncs(pass *Pass, prefixes ...string) map[*types.Func]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	reachable := map[*types.Func]bool{}
	var queue []*types.Func
	for obj := range decls {
		for _, p := range prefixes {
			if strings.HasPrefix(obj.Name(), p) {
				reachable[obj] = true
				queue = append(queue, obj)
				break
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		fd := decls[obj]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee *types.Func
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				callee, _ = pass.Info.Uses[fun.Sel].(*types.Func)
			case *ast.Ident:
				callee, _ = pass.Info.Uses[fun].(*types.Func)
			}
			if callee == nil {
				return true
			}
			if _, local := decls[callee]; local && !reachable[callee] {
				reachable[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}
	return reachable
}
