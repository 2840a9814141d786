//go:build !race

package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

// allocCounts holds each row's allocations per join at 4000×400, as
// TestAllocsDoNotGrowWithInput last measured them. A row may count up to
// allocSlack more (counts move by one or two from run to run); past that
// the test fails and prints the table measured, to paste here once the
// rise is understood and wanted. Paste it after a change that allocates
// less, too, so the ceiling follows the counts down.
var allocCounts = map[string]float64{
	"local-hpja sort-merge":      230,
	"local-hpja simple":          379,
	"local-hpja grace":           387,
	"local-hpja hybrid":          321,
	"local-hpja hybrid-dyn":      592,
	"remote-filtered sort-merge": 246,
	"remote-filtered simple":     428,
	"remote-filtered grace":      420,
	"remote-filtered hybrid":     353,
	"remote-filtered hybrid-dyn": 639,
}

const allocSlack = 8

// TestAllocsDoNotGrowWithInput requires a join's allocation count to stay
// nearly flat when its input grows eightfold: packets, pages and table
// entries are reused, so a cost paid per tuple or per page on the host shows
// up here as a count that grows with the input. It also holds each row's
// count at 4000×400 under its allocCounts ceiling, so a fixed cost added
// per phase or per process shows up too. The collector is off while a join
// is counted, so no collection empties the hash-table pool mid-run. The
// race detector drops puts to that pool and to fmt's internal sync.Pool at
// random, so this file is built without it.
func TestAllocsDoNotGrowWithInput(t *testing.T) {
	var table strings.Builder
	ceilingFailed := false
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
			row := fmt.Sprintf("%s %v", m.name, alg)
			fmt.Fprintf(&table, "\t%-29s %.0f,\n", fmt.Sprintf("%q:", row), a)
			if want, ok := allocCounts[row]; !ok || a > want+allocSlack {
				ceilingFailed = true
				t.Errorf("%s: %.0f allocs at 4000x400, want at most %.0f + %d (allocCounts)", row, a, want, allocSlack)
			}
		}
	}
	if ceilingFailed {
		t.Logf("replacement allocCounts table:\n%s", table.String())
	}
}
