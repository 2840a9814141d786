package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism flags constructs that can make simulator output differ between
// two runs with identical inputs:
//
//  1. wall-clock reads (time.Now, time.Since, time.Until) — simulated time
//     must come from the cost model;
//  2. any use of the global math/rand or math/rand/v2 packages — randomness
//     must flow through explicitly seeded internal/xrand sources;
//  3. a `range` over a map whose body has an effect that both depends on
//     iteration order and is observable outside the loop: a channel send, a
//     goroutine launch, or a write to something that escapes the iterating
//     function.
//
// Rule 3 also follows a call to a local variable bound once to a function
// literal: the literal's writes to variables declared outside it run in map
// order too.
//
// Rule 3 exempts the order-independent shapes the simulator relies on:
// writes keyed by the loop key (m2[k] = ...), commutative integer
// accumulation (n += v and friends — but not floats, whose addition is not
// associative), and the collect-then-sort idiom (appending keys to a slice
// that is later passed to sort or slices). A site that is order-independent
// for a reason the analyzer cannot see carries a `//gammavet:ordered <why>`
// comment on the range line or the line above.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and map iteration " +
		"whose order escapes the function in simulator packages",
	Run: runDeterminism,
	Scope: []string{"internal/core", "internal/netsim", "internal/cost", "internal/disk",
		"internal/fault", "internal/trace", "internal/gamma", "internal/sched",
		"internal/profile", "internal/experiments", "internal/split", "internal/wiss",
		"internal/optimizer", "internal/gammaql", "internal/mva", "cmd/gammabench"},
}

func runDeterminism(p *Pass) error {
	for _, f := range p.Files {
		checkWallClockAndRand(p, f)
		ordered := directiveLines(p.Fset, f, orderedDirective)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncDeterminism(p, fn, ordered)
		}
	}
	return nil
}

// checkWallClockAndRand reports every qualified use of time.Now/Since/Until
// and of the math/rand packages in the file.
func checkWallClockAndRand(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Only package-qualified references (time.Now), not field/method
		// selections on values.
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if _, isPkg := p.Info.Uses[id].(*types.PkgName); !isPkg {
			return true
		}
		obj := p.Info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "time":
			switch obj.Name() {
			case "Now", "Since", "Until":
				p.Reportf(sel.Pos(), "time.%s reads the wall clock; simulated time must come from the cost model", obj.Name())
			}
		case "math/rand", "math/rand/v2":
			p.Reportf(sel.Pos(), "%s.%s is not reproducible across runs; use a seeded gammajoin/internal/xrand source", obj.Pkg().Path(), obj.Name())
		}
		return true
	})
}

// funcUnit is one function body under analysis: a FuncDecl or FuncLit.
// Nested function literals are analyzed as their own units, so "escapes the
// function" always refers to the innermost enclosing function.
type funcUnit struct {
	p       *Pass
	ordered map[int]bool
	body    *ast.BlockStmt
	// declared holds objects declared anywhere inside this unit (params,
	// receivers, results, locals). Objects absent from it are captured
	// variables or globals: writes to them always escape.
	declared map[types.Object]bool
	// paramsAndResults marks parameters, receivers, and named results.
	params  map[types.Object]bool
	results map[types.Object]bool
}

func checkFuncDeterminism(p *Pass, fn *ast.FuncDecl, ordered map[int]bool) {
	u := newFuncUnit(p, ordered, fn.Body, fn.Recv, fn.Type)
	u.walk(fn.Body)
}

func newFuncUnit(p *Pass, ordered map[int]bool, body *ast.BlockStmt, recv *ast.FieldList, ftype *ast.FuncType) *funcUnit {
	u := &funcUnit{
		p:        p,
		ordered:  ordered,
		body:     body,
		declared: map[types.Object]bool{},
		params:   map[types.Object]bool{},
		results:  map[types.Object]bool{},
	}
	addFields := func(fl *ast.FieldList, dst map[types.Object]bool) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					dst[obj] = true
					u.declared[obj] = true
				}
			}
		}
	}
	addFields(recv, u.params)
	addFields(ftype.Params, u.params)
	addFields(ftype.Results, u.results)
	// Locals: every object defined inside the body.
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				u.declared[obj] = true
			}
		}
		return true
	})
	return u
}

// walk visits statements of the unit, analyzing map ranges and recursing
// into nested function literals as fresh units.
func (u *funcUnit) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := newFuncUnit(u.p, u.ordered, n.Body, nil, n.Type)
			inner.walk(n.Body)
			return false
		case *ast.RangeStmt:
			if u.isMapRange(n) {
				u.checkMapRange(n)
			}
			return true
		}
		return true
	})
}

func (u *funcUnit) isMapRange(rs *ast.RangeStmt) bool {
	tv, ok := u.p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange applies rule 3 to one map range statement.
func (u *funcUnit) checkMapRange(rs *ast.RangeStmt) {
	line := u.p.Fset.Position(rs.Pos()).Line
	if u.ordered[line] || u.ordered[line-1] {
		return
	}
	keyObj := u.rangeVar(rs.Key)
	valObj := u.rangeVar(rs.Value)

	var violations []violation

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined inside the body runs at most once per
			// iteration if called here, and its order-sensitive effects are
			// caught by the go/send rules; don't double-report its writes.
			return false
		case *ast.SendStmt:
			violations = append(violations, violation{n.Pos(), "a channel send happens in map order", nil})
		case *ast.GoStmt:
			violations = append(violations, violation{n.Pos(), "goroutines are launched in map order", nil})
		case *ast.CallExpr:
			if lit, v := calledVariable(u.p, u.body, n); lit != nil {
				violations = append(violations, u.closureWrites(n.Pos(), v, lit)...)
			}
		case *ast.IncDecStmt:
			if v, ok := u.checkWrite(rs, keyObj, valObj, n.X, n.Tok, nil); ok {
				violations = append(violations, violation{n.Pos(), v, nil})
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if tgt := appendSelfTarget(u.p, lhs, rhs, n.Tok); tgt != nil {
					if u.escapes(rs, tgt) {
						violations = append(violations, violation{n.Pos(),
							"append order follows map order", tgt})
					}
					continue
				}
				if v, ok := u.checkWrite(rs, keyObj, valObj, lhs, n.Tok, rhs); ok {
					violations = append(violations, violation{n.Pos(), v, nil})
				}
			}
		}
		return true
	})

	for _, v := range violations {
		if v.appendTarget != nil && u.sortedAfter(v.appendTarget, rs.End()) {
			continue
		}
		u.p.Reportf(v.pos, "map iteration order over %s escapes this function (%s); "+
			"range over sorted keys or justify with //gammavet:ordered", exprString(rs.X), v.detail)
	}
}

// violation is one order-dependent effect found in a map-range body.
type violation struct {
	pos    token.Pos
	detail string
	// appendTarget is set for x = append(x, ...) findings, which are
	// forgiven if x is sorted after the loop.
	appendTarget types.Object
}

// closureWrites lists the writes that lit, bound to the local variable fn
// and called at pos in a map-range body, makes to variables declared
// outside it: the call runs them in map order. Commutative integer
// accumulation is exempt, as in the body itself.
func (u *funcUnit) closureWrites(pos token.Pos, fn types.Object, lit *ast.FuncLit) []violation {
	var found []violation
	write := func(lhs, rhs ast.Expr, tok token.Token) {
		base := baseIdent(unparen(lhs))
		if base == nil {
			return
		}
		obj, ok := u.p.objOf(base).(*types.Var)
		if !ok || obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() ||
			isCommutativeIntOp(tok, u.p.Info.Types[lhs].Type) {
			return
		}
		if tgt := appendSelfTarget(u.p, lhs, rhs, tok); tgt != nil {
			found = append(found, violation{pos, "the call to " + fn.Name() + " appends to " + obj.Name(), tgt})
			return
		}
		found = append(found, violation{pos, "the call to " + fn.Name() + " writes " + obj.Name(), nil})
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			write(n.X, nil, n.Tok)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				write(lhs, rhs, n.Tok)
			}
		}
		return true
	})
	return found
}

func (u *funcUnit) rangeVar(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := u.p.Info.Defs[id]; obj != nil {
		return obj
	}
	return u.p.Info.Uses[id]
}

// appendSelfTarget matches `x = append(x, ...)` and returns x's object.
func appendSelfTarget(p *Pass, lhs, rhs ast.Expr, tok token.Token) types.Object {
	if tok != token.ASSIGN && tok != token.DEFINE {
		return nil
	}
	lid, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || fid.Name != "append" {
		return nil
	}
	if b, ok := p.Info.Uses[fid].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	aid, ok := call.Args[0].(*ast.Ident)
	if !ok || aid.Name != lid.Name {
		return nil
	}
	return p.objOf(lid)
}

func (p *Pass) objOf(id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// checkWrite classifies one assignment target inside a map-range body.
// It returns a violation description and true when the write is both
// order-sensitive and escaping.
func (u *funcUnit) checkWrite(rs *ast.RangeStmt, keyObj, valObj types.Object, lhs ast.Expr, tok token.Token, rhs ast.Expr) (string, bool) {
	lhs = unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return "", false
	}

	// Writes keyed by the loop key touch a distinct element each iteration,
	// so their combined effect is order-independent.
	if ix, ok := lhs.(*ast.IndexExpr); ok && keyObj != nil && mentionsObj(u.p, ix.Index, keyObj) {
		return "", false
	}

	base := baseIdent(lhs)
	if base == nil {
		return "", false
	}
	obj := u.p.objOf(base)
	if obj == nil || obj == keyObj || obj == valObj {
		return "", false
	}
	if v, ok := obj.(*types.Var); !ok || v == nil {
		return "", false
	}
	// Loop-local targets (declared inside the range statement) die with the
	// iteration.
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return "", false
	}

	// Commutative integer accumulation is order-independent. Floating-point
	// accumulation is not (addition is non-associative), so it stays flagged.
	if isCommutativeIntOp(tok, u.p.Info.Types[lhs].Type) {
		return "", false
	}

	if !u.escapes(rs, obj) && !u.writesThroughReference(lhs, obj) {
		return "", false
	}
	return "the write to " + base.Name + " is iteration-order dependent", true
}

// writesThroughReference reports whether the write reaches caller-visible
// state through a pointer, field, or element of a parameter or captured
// variable (a plain local rebinding does not).
func (u *funcUnit) writesThroughReference(lhs ast.Expr, obj types.Object) bool {
	if _, plain := lhs.(*ast.Ident); plain {
		return false
	}
	return u.params[obj] || !u.declared[obj]
}

// escapes reports whether obj's value is observable outside this iteration
// order: it is a global or captured variable, a named result, a parameter,
// or a local that is read after the range loop, captured by a function
// literal, or has its address taken.
func (u *funcUnit) escapes(rs *ast.RangeStmt, obj types.Object) bool {
	if !u.declared[obj] {
		return true // global or captured from an enclosing function
	}
	if u.results[obj] || u.params[obj] {
		return true
	}
	used := false
	var visit func(n ast.Node, inFuncLit bool)
	visit = func(n ast.Node, inFuncLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if used {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				visit(n.Body, true)
				return false
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := unparen(n.X).(*ast.Ident); ok && u.p.objOf(id) == obj {
						used = true
						return false
					}
				}
			case *ast.Ident:
				if u.p.objOf(n) == obj && (inFuncLit || n.Pos() > rs.End()) {
					used = true
					return false
				}
			}
			return true
		})
	}
	visit(u.body, false)
	return used
}

// sortedAfter reports whether slice obj is passed to a sort/slices sorting
// function after pos in this unit — the collect-then-sort idiom.
func (u *funcUnit) sortedAfter(obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(u.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := u.p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if id, ok := unparen(call.Args[0]).(*ast.Ident); ok && u.p.objOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

func isCommutativeIntOp(tok token.Token, t types.Type) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
		token.INC, token.DEC:
	default:
		return false
	}
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func mentionsObj(p *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.objOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
