package analysis

import "testing"

func TestWallClockSeededViolations(t *testing.T) {
	RunTest(t, "testdata/wallclock", WallClock)
}

// TestWallClockCleanRepoWide is the live gate over every package, the
// shim whose directives sanction the clock included.
func TestWallClockCleanRepoWide(t *testing.T) {
	assertClean(t, WallClock)
}
