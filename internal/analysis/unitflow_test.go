package analysis

import "testing"

func TestUnitFlowSeededViolations(t *testing.T) {
	RunTest(t, "testdata/unitflow", UnitFlow)
}

// TestUnitFlowCleanOnSimulator is the live gate: the refactored simulator
// must contain no unit-laundering conversions.
func TestUnitFlowCleanOnSimulator(t *testing.T) {
	assertClean(t, UnitFlow)
}

// assertClean runs the analyzer over every module package in its Scope —
// the same set `gammavet ./...` checks — fails on any diagnostic, and
// returns the packages it checked.
func assertClean(t *testing.T, a *Analyzer) []*LoadedPackage {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Packages([]string{loader.ModRoot() + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var checked []*LoadedPackage
	for _, pkg := range pkgs {
		if !a.Covers(pkg.Path) {
			continue
		}
		lp, err := loader.Load(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(a, lp)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("unexpected finding: %s", d)
		}
		checked = append(checked, lp)
	}
	if len(checked) == 0 {
		t.Fatalf("%s: no module package in scope %v", a.Name, a.Scope)
	}
	return checked
}
