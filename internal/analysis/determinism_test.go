package analysis

import "testing"

func TestDeterminismSeededViolations(t *testing.T) {
	RunTest(t, "testdata/determ", Determinism)
}

// TestDeterminismCleanOnSimulator is the live gate over the simulator
// packages.
func TestDeterminismCleanOnSimulator(t *testing.T) {
	assertClean(t, Determinism)
}
