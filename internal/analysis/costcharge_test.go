package analysis

import "testing"

func TestCostChargeSeededViolations(t *testing.T) {
	RunTest(t, "testdata/costcharge", CostCharge)
}

// TestCostChargeCleanOnCore is the live gate the CI driver also runs: the
// real execution engine must contain no unpriced traffic.
func TestCostChargeCleanOnCore(t *testing.T) {
	assertClean(t, CostCharge)
}
