package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LeakCheck requires every goroutine launched in the simulator's concurrent
// packages to have a visible join in the launching function. The simulator's
// determinism contract depends on quiescence: a phase's charges are summed
// after its workers finish, so a goroutine that can outlive its phase races
// the accounting — and a goroutine that never finishes leaks a little more
// of the scheduler on every faulted run.
//
// For each `go` statement the analyzer accepts two join disciplines, checked
// within the launching function on the launched literal — written at the
// go statement, or held by a local variable that is assigned exactly once,
// from a literal, and never has its address taken (`run := func() {...}`
// then `go run()`):
//
//  1. WaitGroup: the goroutine body defers wg.Done() on some
//     sync.WaitGroup, wg.Add is called before the launch, and wg.Wait is
//     called after it. Done must be deferred, not trailing — a panic or
//     early return in the body must still release the join, or a crash-abort
//     path deadlocks the phase instead of unwinding it.
//  2. Channel: the goroutine body closes or sends on a channel, and the
//     launching function receives from (or ranges over) that channel after
//     the launch.
//
// Either way, a `return` statement between the launch and the join is
// flagged: that path abandons the goroutine, which is exactly how
// early-abort and failover leaks happen.
//
// A launch that is joined by some means the analyzer cannot see carries a
// `//gammavet:leakcheck <why>` comment on the go statement's line or the
// line above.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc: "require every goroutine launch to be joined (WaitGroup or channel) " +
		"on all return paths of the launching function",
	Run:   runLeakCheck,
	Scope: []string{"internal/core", "internal/sched", "internal/netsim"},
}

const leakCheckDirective = "gammavet:leakcheck"

func runLeakCheck(p *Pass) error {
	for _, f := range p.Files {
		allowed := directiveLines(p.Fset, f, leakCheckDirective)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLeakUnit(p, fn.Body, allowed)
		}
	}
	return nil
}

// checkLeakUnit analyzes one function body (literals recurse as their own
// units, so a join must be visible in the *launching* function).
func checkLeakUnit(p *Pass, body *ast.BlockStmt, allowed map[int]bool) {
	var launches []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLeakUnit(p, n.Body, allowed)
			return false
		case *ast.GoStmt:
			launches = append(launches, n)
			// The goroutine body is its own unit too: a launch inside it
			// needs its own join.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkLeakUnit(p, lit.Body, allowed)
			}
			return false
		}
		return true
	})
	for _, g := range launches {
		line := p.Fset.Position(g.Pos()).Line
		if allowed[line] || allowed[line-1] {
			continue
		}
		checkLaunch(p, body, g)
	}
}

// checkLaunch validates one go statement against the two join disciplines.
func checkLaunch(p *Pass, body *ast.BlockStmt, g *ast.GoStmt) {
	lit, ok := unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		var v types.Object
		if lit, v = calledVariable(p, body, g.Call); lit == nil {
			if v != nil {
				p.Reportf(g.Pos(), "goroutine launches %s, which is not assigned exactly once from a function literal; the analyzer cannot tell which body runs", v.Name())
				return
			}
			// `go method()` with no literal body: the analyzer cannot see a
			// Done/close inside, so it cannot prove a join.
			p.Reportf(g.Pos(), "goroutine launched without a visible join; launch a literal, or a local variable assigned once from one, that defers wg.Done() or closes a channel, or justify with //gammavet:leakcheck")
			return
		}
	}
	if wg := deferredDoneTarget(p, lit.Body); wg != nil {
		addBefore := callsMethodOn(p, body, wg, "Add", g.Pos())
		waitPos, waitAfter := firstMethodCallAfter(p, body, wg, "Wait", g.End())
		switch {
		case !addBefore:
			p.Reportf(g.Pos(), "goroutine defers %s.Done() but %s.Add is not called before the launch; Add must precede go or Wait can return early", wg.Name(), wg.Name())
		case !waitAfter:
			p.Reportf(g.Pos(), "goroutine defers %s.Done() but the launching function never calls %s.Wait() after the launch", wg.Name(), wg.Name())
		default:
			reportReturnsBetween(p, body, g, waitPos, "the WaitGroup join")
		}
		return
	}
	if ch := channelSignalTarget(p, lit.Body); ch != nil {
		recvPos, recvAfter := firstReceiveAfter(p, body, ch, g.End())
		if !recvAfter {
			p.Reportf(g.Pos(), "goroutine signals channel %s but the launching function never receives from it after the launch", ch.Name())
			return
		}
		reportReturnsBetween(p, body, g, recvPos, "the channel join")
		return
	}
	p.Reportf(g.Pos(), "goroutine body neither defers a WaitGroup Done() nor signals a channel; every launch needs a join the phase can wait on")
}

// calledVariable resolves a call `run()` (launched by `go run()`, say)
// where run is a local variable of the function whose body is body. It
// returns the variable and, when the function assigns it exactly once, from
// a function literal, and never takes its address, that literal; a variable
// declared outside body returns neither.
func calledVariable(p *Pass, body *ast.BlockStmt, call *ast.CallExpr) (*ast.FuncLit, types.Object) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Pos() < body.Pos() || v.Pos() >= body.End() {
		return nil, nil
	}
	var lit *ast.FuncLit
	assigns, addressed := 0, false
	assign := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			if lid, ok := unparen(l).(*ast.Ident); !ok || p.objOf(lid) != v {
				continue
			}
			assigns++
			if len(rhs) == len(lhs) {
				lit, _ = unparen(rhs[i]).(*ast.FuncLit)
			}
		}
	}
	// Function literals are searched too: a closure may reassign it.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				lhs := make([]ast.Expr, len(n.Names))
				for i, name := range n.Names {
					lhs[i] = name
				}
				assign(lhs, n.Values)
			}
		case *ast.UnaryExpr:
			if x, ok := unparen(n.X).(*ast.Ident); ok && n.Op == token.AND && p.objOf(x) == v {
				addressed = true
			}
		}
		return true
	})
	if assigns != 1 || addressed {
		return nil, v
	}
	return lit, v
}

// deferredDoneTarget returns the *sync.WaitGroup variable whose Done() the
// body defers, or nil.
func deferredDoneTarget(p *Pass, body *ast.BlockStmt) types.Object {
	for _, stmt := range body.List {
		def, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		sel, ok := def.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			continue
		}
		if !isWaitGroup(p.Info.Types[sel.X].Type) {
			continue
		}
		if id, ok := unparen(sel.X).(*ast.Ident); ok {
			return p.objOf(id)
		}
	}
	return nil
}

// channelSignalTarget returns a channel variable the body closes or sends
// on (deferred or not), or nil.
func channelSignalTarget(p *Pass, body *ast.BlockStmt) types.Object {
	var found types.Object
	chanObj := func(e ast.Expr) types.Object {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := p.objOf(id)
		if obj == nil {
			return nil
		}
		if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
			return nil
		}
		return obj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found = chanObj(n.Chan)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					found = chanObj(n.Args[0])
				}
			}
		}
		return true
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// callsMethodOn reports whether body calls obj.name(...) strictly before pos
// (outside nested function literals).
func callsMethodOn(p *Pass, body *ast.BlockStmt, obj types.Object, name string, pos token.Pos) bool {
	found := false
	inspectOutsideFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.End() > pos || found {
			return
		}
		if matchMethodOn(p, call, obj, name) {
			found = true
		}
	})
	return found
}

// firstMethodCallAfter returns the position of the first obj.name() call
// after pos in body (outside nested literals).
func firstMethodCallAfter(p *Pass, body *ast.BlockStmt, obj types.Object, name string, pos token.Pos) (token.Pos, bool) {
	var at token.Pos
	found := false
	inspectOutsideFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return
		}
		if matchMethodOn(p, call, obj, name) && (!found || call.Pos() < at) {
			at, found = call.Pos(), true
		}
	})
	return at, found
}

// firstReceiveAfter returns the position of the first receive from ch
// (<-ch or range ch) after pos in body.
func firstReceiveAfter(p *Pass, body *ast.BlockStmt, ch types.Object, pos token.Pos) (token.Pos, bool) {
	var at token.Pos
	found := false
	record := func(n ast.Node) {
		if !found || n.Pos() < at {
			at, found = n.Pos(), true
		}
	}
	isCh := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && p.objOf(id) == ch
	}
	inspectOutsideFuncLits(body, func(n ast.Node) {
		if n.Pos() < pos {
			return
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isCh(n.X) {
				record(n)
			}
		case *ast.RangeStmt:
			if isCh(n.X) {
				record(n)
			}
		}
	})
	return at, found
}

func matchMethodOn(p *Pass, call *ast.CallExpr, obj types.Object, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	return ok && p.objOf(id) == obj
}

// inspectOutsideFuncLits walks body without descending into function
// literals (their statements run on other goroutines or at other times).
func inspectOutsideFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// reportReturnsBetween flags return statements that exit the launching
// function after the launch but before its join — the leak shape of
// early-abort paths.
func reportReturnsBetween(p *Pass, body *ast.BlockStmt, g *ast.GoStmt, joinPos token.Pos, what string) {
	inspectOutsideFuncLits(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= g.End() || ret.Pos() >= joinPos {
			return
		}
		p.Reportf(ret.Pos(), "return between the goroutine launch and %s abandons the goroutine on this path", what)
	})
}
