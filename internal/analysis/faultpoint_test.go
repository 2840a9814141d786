package analysis

import "testing"

func TestFaultPointSeededViolations(t *testing.T) {
	RunTest(t, "testdata/faultpoint", FaultPoint)
}

// TestFaultPointCleanOnScope is the live gate: no package in scope bypasses
// the fault registry's consumption points.
func TestFaultPointCleanOnScope(t *testing.T) {
	assertClean(t, FaultPoint)
}
