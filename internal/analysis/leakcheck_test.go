package analysis

import (
	"go/ast"
	"testing"
)

func TestLeakCheckSeededViolations(t *testing.T) {
	RunTest(t, "testdata/leakcheck", LeakCheck)
}

// TestLeakCheckCleanOnConcurrentPackages is the live gate: every goroutine
// the engine launches must be visibly joined. A scope without a single go
// statement would pass it vacuously, so the gate also counts them.
func TestLeakCheckCleanOnConcurrentPackages(t *testing.T) {
	launches := 0
	for _, lp := range assertClean(t, LeakCheck) {
		for _, f := range lp.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					launches++
				}
				return true
			})
		}
	}
	if launches == 0 {
		t.Fatalf("no go statement in the non-test files of %v: the gate checks nothing", LeakCheck.Scope)
	}
}
