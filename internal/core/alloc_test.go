//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

// TestAllocsDoNotGrowWithInput requires a join's allocation count to stay
// nearly flat when its input grows eightfold: packets, pages and table
// entries are reused, so a cost paid per tuple or per page on the host shows
// up here as a count that grows with the input. The collector is off while
// a join is counted, so no collection empties a sync.Pool mid-run; the race
// detector drops pool puts at random, so this file is built without it.
func TestAllocsDoNotGrowWithInput(t *testing.T) {
	machines := []struct {
		name     string
		cluster  func() *gamma.Cluster
		partAttr int // Unique1 is the join attribute, so Unique1 means HPJA
		filter   bool
	}{
		{"local-hpja", func() *gamma.Cluster { return gamma.NewLocal(8, nil) }, tuple.Unique1, false},
		{"remote-filtered", func() *gamma.Cluster { return gamma.NewRemote(8, 8, nil) }, tuple.Unique2, true},
	}
	for _, m := range machines {
		small := mkFixture(t, m.cluster(), 4000, gamma.HashPart, m.partAttr)
		large := mkFixture(t, m.cluster(), 32000, gamma.HashPart, m.partAttr)
		allocs := func(f fixture, alg Algorithm) float64 {
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(3, func() {
				runJoin(t, f, alg, 0.5, func(s *Spec) { s.BitFilter = m.filter })
			})
		}
		for _, alg := range allAlgs {
			a, b := allocs(small, alg), allocs(large, alg)
			const bound = 1.25
			t.Logf("%s %v: %.0f allocs at 4000x400, %.0f at 32000x3200 (%.2fx)", m.name, alg, a, b, b/a)
			if b > bound*a {
				t.Errorf("%s %v: %.0f allocs at 32000x3200 is %.2fx the %.0f at 4000x400, want at most %.2fx",
					m.name, alg, b, b/a, a, bound)
			}
		}
	}
}
