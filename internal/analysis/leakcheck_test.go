package analysis

import "testing"

func TestLeakCheckSeededViolations(t *testing.T) {
	RunTest(t, "testdata/leakcheck", LeakCheck)
}

// TestLeakCheckCleanOnConcurrentPackages is the live gate: every goroutine
// the engine launches must be visibly joined.
func TestLeakCheckCleanOnConcurrentPackages(t *testing.T) {
	assertClean(t, LeakCheck)
}
