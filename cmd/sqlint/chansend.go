package main

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// chansendAnalyzer enforces channel discipline in the code reachable from
// the serving entry points (Query*/Handle*/Serve*). Three rules:
//
//   - a blocking send must either sit in a select with at least one other
//     case (cancellation, stop, or default) or go to a channel provably
//     declared with a capacity. A bare send to an unbuffered channel
//     wedges the sender the moment the other side stops receiving —
//     which on the query path means a cancelled query leaks its producer
//     goroutine forever (exactly the bug class the worker pools in
//     internal/core are shaped to avoid);
//   - a blocking receive must sit in such a select, be a completion wait
//     on a channel this function made and hands to its own goroutine to
//     close/send (the `<-done` join idiom), or receive from a call result
//     (`<-time.After(d)`, `<-ctx.Done()` — channels whose producer is the
//     callee's contract). Buffering does not excuse a receive: an empty
//     buffered channel blocks exactly like an unbuffered one;
//   - `close` may only be called by the owning side: closing a channel
//     received as a parameter hands a send-side responsibility to a
//     consumer, and a later send by the real owner panics.
//
// Receives in `for v := range ch` are exempt — range ends when the owner
// closes the channel, and the close-ownership rule polices the other end.
var chansendAnalyzer = &Analyzer{
	Name: "chansend",
	Doc:  "blocking channel ops on serving paths need a cancellation case or buffered channel; close only what you own",
	Applies: func(path string) bool {
		return pathMatchesAny(path,
			"internal/core", "internal/inflight", "internal/telemetry", "sqserver")
	},
	Run: runChansend,
}

func runChansend(pass *Pass) {
	buffered := channelBufferFacts(pass)
	reachable := reachableFuncs(pass, "Query", "Handle", "handle", "Serve", "serve")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); !ok || !reachable[obj] {
				continue
			}
			checkChanOps(pass, fd, buffered)
		}
	}
}

// channelBufferFacts scans the whole package for `make(chan T, n)` bindings
// and maps the bound variable or struct field to whether every make it is
// given has a capacity. A variable made both ways collapses to unbuffered —
// the conservative answer.
func channelBufferFacts(pass *Pass) map[types.Object]bool {
	facts := map[types.Object]bool{}
	record := func(obj types.Object, buf bool) {
		if obj == nil {
			return
		}
		if prev, seen := facts[obj]; seen {
			facts[obj] = prev && buf
		} else {
			facts[obj] = buf
		}
	}
	objFor := func(e ast.Expr) types.Object {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := pass.Info.Defs[e]; obj != nil {
				return obj
			}
			return pass.Info.Uses[e]
		case *ast.SelectorExpr:
			return pass.Info.Uses[e.Sel]
		}
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if buf, ok := makeChanCapacity(pass, rhs); ok {
						record(objFor(n.Lhs[i]), buf)
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if buf, ok := makeChanCapacity(pass, v); ok && i < len(n.Names) {
						record(objFor(n.Names[i]), buf)
					}
				}
			case *ast.KeyValueExpr:
				// Hub{out: make(chan int)} composite-literal field init.
				if buf, ok := makeChanCapacity(pass, n.Value); ok {
					if key, isIdent := n.Key.(*ast.Ident); isIdent {
						record(pass.Info.Uses[key], buf)
					}
				}
			}
			return true
		})
	}
	return facts
}

// makeChanCapacity reports whether e is a make of a channel, and if so
// whether it is given a non-zero capacity.
func makeChanCapacity(pass *Pass, e ast.Expr) (buffered, isMakeChan bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false, false
	}
	if !isChanType(pass.Info.Types[call.Args[0]].Type) {
		return false, false
	}
	if len(call.Args) < 2 {
		return false, true
	}
	// A constant zero capacity is unbuffered; a non-constant capacity is
	// taken at its word (the admission limiter sizes its semaphore from
	// config).
	if v := pass.Info.Types[call.Args[1]].Value; v != nil && constant.Sign(v) == 0 {
		return false, true
	}
	return true, true
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// chanOperandObj resolves the channel operand of a send/receive to the
// variable or struct field it names, or nil for anything more complex.
func chanOperandObj(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.Info.Uses[e]
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	}
	return nil
}

func checkChanOps(pass *Pass, fd *ast.FuncDecl, buffered map[types.Object]bool) {
	// Walk the declaration, not just the body, so the FuncDecl is on the
	// stack: enclosingFunc and isParamOf need it.
	walkStack(fd, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if selectHasAlternative(n, stack) {
				return true
			}
			if obj := chanOperandObj(pass, n.Chan); obj != nil && buffered[obj] {
				return true
			}
			pass.Reportf(n.Pos(), "blocking send on %s outside a select; a cancelled query wedges this goroutine forever — add a select with a Cancel/stop case or declare the channel with capacity", types.ExprString(n.Chan))
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			if selectHasAlternative(n, stack) {
				return true
			}
			if _, isCall := ast.Unparen(n.X).(*ast.CallExpr); isCall {
				return true // <-time.After(d), <-ctx.Done(): callee-owned channel
			}
			obj := chanOperandObj(pass, n.X)
			if obj != nil && isCompletionWait(pass, stack, obj) {
				return true
			}
			pass.Reportf(n.Pos(), "blocking receive on %s with no cancellation path; select on it together with a Cancel/stop case", types.ExprString(n.X))
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if obj := chanOperandObj(pass, n.Args[0]); obj != nil && isParamOf(pass, stack, obj) {
					pass.Reportf(n.Pos(), "close(%s) closes a channel received as a parameter; only the sending/owning side may close a channel", types.ExprString(n.Args[0]))
				}
			}
		}
		return true
	})
}

// selectHasAlternative reports whether node n is the communication of a
// select case whose select has at least one other case — so the operation
// can lose the race to a cancellation (or default) instead of blocking.
// A single-case select is equivalent to the bare operation and does not
// qualify. The ancestor chain for a comm is SelectStmt → BlockStmt →
// CommClause → comm statement, and n must sit inside the comm statement,
// not the clause body.
func selectHasAlternative(n ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.CommClause:
			var pathChild ast.Node = n
			if i+1 < len(stack) {
				pathChild = stack[i+1]
			}
			if s.Comm == nil || pathChild != s.Comm {
				return false
			}
			if i >= 2 {
				if sel, ok := stack[i-2].(*ast.SelectStmt); ok {
					return len(sel.Body.List) >= 2
				}
			}
			return false
		}
	}
	return false
}

// isCompletionWait reports whether obj is a channel the enclosing function
// makes itself and hands to a goroutine it launches to close or send on —
// the `done := make(chan struct{}); go func(){ ...; close(done) }(); <-done`
// join idiom, whose termination is owned entirely by this function. The
// goroutine body is resolved through local `worker := func(){}` bindings,
// package functions and methods (resolveGoBody).
func isCompletionWait(pass *Pass, stack []ast.Node, obj types.Object) bool {
	_, body := enclosingFunc(stack)
	if body == nil {
		return false
	}
	localLits := localFuncBindings(pass, body)
	madeHere := false
	goroutineSignals := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				def := pass.Info.Defs[id]
				if def == nil {
					def = pass.Info.Uses[id]
				}
				if def != obj {
					continue
				}
				if _, isMake := makeChanCapacity(pass, n.Rhs[i]); isMake {
					madeHere = true
				}
			}
		case *ast.GoStmt:
			gbody := resolveGoBody(pass, n, localLits)
			if gbody == nil {
				return true
			}
			ast.Inspect(gbody, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.SendStmt:
					if chanOperandObj(pass, m.Chan) == obj {
						goroutineSignals = true
					}
				case *ast.CallExpr:
					if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "close" && len(m.Args) == 1 {
						if chanOperandObj(pass, m.Args[0]) == obj {
							goroutineSignals = true
						}
					}
				}
				return !goroutineSignals
			})
		}
		return true
	})
	return madeHere && goroutineSignals
}

// isParamOf reports whether obj is declared as a parameter of any function
// enclosing the current node.
func isParamOf(pass *Pass, stack []ast.Node, obj types.Object) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if pass.Info.Defs[name] == obj {
					return true
				}
			}
		}
	}
	return false
}
