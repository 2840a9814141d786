package analysis

import (
	"go/ast"
	"go/types"
)

// WallClock bans the real clock repo-wide. The determinism analyzer already
// forbids wall-clock *reads* inside the simulator packages; this analyzer
// extends the ban to every package and to the scheduling side of the time
// package — Sleep, After, Tick, NewTimer, NewTicker — because a wall-clock
// dependency anywhere in the module is a reproducibility hazard: harness
// output must be byte-identical across machines and runs, and a Sleep-based
// rendezvous is a flaky test waiting to happen.
//
// The sanctioned exception is internal/walltime, the harness's wall-clock
// shim: its two functions carry the `//gammavet:wallclock <why>` directive
// (same line or line above), and code that genuinely wants wall-clock
// timing — the -t flag's "how long did this take to compute" lines —
// imports the shim, keeping every real-clock dependency greppable through
// one import path.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "ban time.Now/Since/Until/Sleep/After/Tick/NewTimer/NewTicker " +
		"everywhere; wall-clock access goes through the internal/walltime shim",
	Run:   runWallClock,
	Scope: []string{"*"},
}

const wallClockDirective = "gammavet:wallclock"

// wallClockFuncs are the time-package functions that read or schedule
// against the real clock. Pure-value helpers (time.Duration arithmetic,
// time.Unix, parsing, formatting) stay allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runWallClock(p *Pass) error {
	for _, f := range p.Files {
		allowed := directiveLines(p.Fset, f, wallClockDirective)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, isPkg := p.Info.Uses[id].(*types.PkgName); !isPkg {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !wallClockFuncs[obj.Name()] {
				return true
			}
			line := p.Fset.Position(sel.Pos()).Line
			if allowed[line] || allowed[line-1] {
				return true
			}
			p.Reportf(sel.Pos(), "time.%s touches the real clock; simulated time comes from the cost model, and harness timing goes through internal/walltime", obj.Name())
			return true
		})
	}
	return nil
}
