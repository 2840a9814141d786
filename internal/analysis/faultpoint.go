package analysis

import (
	"go/ast"
	"go/types"
)

// FaultPoint keeps all fault injection flowing through the registry's
// designated consumption points. Each fault.Registry decision method has
// exactly one owning layer — ReadRetries belongs to internal/disk,
// PacketFate to internal/netsim, MemFactor and CrashSiteAt to
// internal/core — and calling one anywhere else means a component is
// making failure decisions out of band: the schedule would depend on code
// paths the determinism argument (docs/FAULTS.md) never analysed, and the
// per-operation ordinals the registry hands out would be consumed by
// bystanders, shifting every later decision.
//
// A `//gammavet:faultpoint` directive on the call's line suppresses the
// rule, mirroring the determinism analyzer's `//gammavet:ordered` escape
// hatch — tests that probe the registry directly justify themselves with
// it (the registry's own package and _test.go files are exempt anyway).
var FaultPoint = &Analyzer{
	Name: "faultpoint",
	Doc: "restrict fault.Registry decision methods to the physical layer " +
		"that owns each fault kind, so injection never bypasses the registry's " +
		"deterministic consumption points",
	Run: runFaultPoint,
	Scope: []string{"internal/core", "internal/disk", "internal/netsim", "internal/gamma",
		"internal/wiss", "internal/experiments"},
}

// faultPointDirective is the justification comment that suppresses the
// faultpoint rule at one call site.
const faultPointDirective = "gammavet:faultpoint"

// faultOwners maps each Registry decision method to the package allowed to
// call it.
var faultOwners = map[string]string{
	"ReadRetries":      "internal/disk",
	"RetryBackoffNs":   "internal/disk",
	"PacketFate":       "internal/netsim",
	"MemFactor":        "internal/core",
	"BudgetSwing":      "internal/core",
	"CrashSiteAt":      "internal/core",
	"DetectExtraBeats": "internal/netsim",
	// The retry budget is scoped and consumed by the query runner; reading
	// it elsewhere would race the per-query reset. (BudgetUsed is a plain
	// accessor, reported after the run, and stays unrestricted.)
	"BeginQueryBudget": "internal/core",
	"ConsumeRestart":   "internal/core",
	"BudgetExhausted":  "internal/core",
	// Arrival bursts shape the workload generator's arrival schedule.
	"ArrivalBurst": "internal/sched",
}

func runFaultPoint(p *Pass) error {
	path := p.Pkg.Path()
	if isPathSuffix(path, "internal/fault") {
		return nil // the registry may use itself freely
	}
	for _, f := range p.Files {
		allowed := directiveLines(p.Fset, f, faultPointDirective)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !isPkgNamed(sig.Recv().Type(), "internal/fault", "Registry") {
				return true
			}
			owner, decision := faultOwners[fn.Name()]
			if !decision {
				return true // Spec() and other accessors are unrestricted
			}
			if isPathSuffix(path, owner) {
				return true
			}
			if allowed[p.Fset.Position(call.Pos()).Line] {
				return true
			}
			p.Reportf(call.Pos(), "fault.Registry.%s consumed outside %s; fault decisions must stay at the owning layer's injection point (or justify with //gammavet:faultpoint)", fn.Name(), owner)
			return true
		})
	}
	return nil
}
