package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/mva"
)

// TestDemandCentersDeterministic: demandCenters lists the MVA centers in
// site order, so converting one report again gives the same centers and
// bit-identical MVA throughputs. Centers in map order would not: exact MVA
// sums residence times over the centers, and float addition depends on its
// order.
func TestDemandCentersDeterministic(t *testing.T) {
	h := NewHarness(testConfig())
	for _, remote := range []bool{false, true} {
		rep, err := h.Run(RunKey{Alg: core.Hybrid, Remote: remote, Ratio: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		first := demandCenters(rep)
		want, err := mva.Solve(first, 16)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call < 50; call++ {
			got := demandCenters(rep)
			if !slices.Equal(got, first) {
				t.Fatalf("remote=%v call %d: centers %v, first call %v", remote, call, got, first)
			}
			curve, err := mva.Solve(got, 16)
			if err != nil {
				t.Fatal(err)
			}
			for i := range curve {
				if math.Float64bits(curve[i].Throughput) != math.Float64bits(want[i].Throughput) {
					t.Fatalf("remote=%v call %d, %d clients: throughput %v, first call %v",
						remote, call, curve[i].Clients, curve[i].Throughput, want[i].Throughput)
				}
			}
		}
	}
}

func TestExtFormingFilters(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.ExtFormingFilters()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if strings.HasPrefix(row[4], "-") {
			t.Errorf("%s at %s: forming filters made it slower (%s)", row[0], row[1], row[4])
		}
	}
}

func TestExtBucketTuningBeatsExtraBucketUnderSkew(t *testing.T) {
	h := NewHarness(testConfig())
	if _, err := h.ExtBucketTuning(); err != nil {
		t.Fatal(err)
	}
	tuned, err := h.Run(RunKey{Alg: core.Grace, Skew: "NU", Ratio: 0.17, BucketTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := h.Run(RunKey{Alg: core.Grace, Skew: "NU", Ratio: 0.17})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.OverflowClears > plain.OverflowClears {
		t.Errorf("tuning increased overflow: %d vs %d", tuned.OverflowClears, plain.OverflowClears)
	}
	if tuned.ResultCount != plain.ResultCount {
		t.Errorf("tuning changed results: %d vs %d", tuned.ResultCount, plain.ResultCount)
	}
}

func TestExtMixedConfig(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.ExtMixedConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// At the lowest memory point the mixed configuration lies between
	// local and remote (the DEWI88 halfway claim).
	last := len(MemRatios) - 1
	l := res.Series[0].Points[last].Y
	m := res.Series[1].Points[last].Y
	r := res.Series[2].Points[last].Y
	lo, hi := l, r
	if lo > hi {
		lo, hi = hi, lo
	}
	if m < lo-0.5 || m > hi+0.5 {
		t.Errorf("mixed (%v) not between local (%v) and remote (%v) at low memory", m, l, r)
	}
}

func TestExtUtilization(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.ExtUtilization()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's Section 5 claim: remote unloads the disk-site CPUs.
	local, err := h.Run(RunKey{Alg: core.Hybrid, Ratio: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := h.Run(RunKey{Alg: core.Hybrid, Remote: true, Ratio: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if remote.UtilDisk >= local.UtilDisk {
		t.Errorf("remote disk util %.2f should be below local %.2f",
			remote.UtilDisk, local.UtilDisk)
	}
	if remote.BottleneckBusy >= local.BottleneckBusy {
		t.Errorf("remote throughput bound should beat local: %v vs %v",
			remote.BottleneckBusy, local.BottleneckBusy)
	}
}

func TestExtJoinAselBSameTrends(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.ExtJoinAselB()
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string][]Point{}
	for _, s := range res.Series {
		pts[s.Label] = s.Points
	}
	hy, si, gr := pts["hybrid"], pts["simple"], pts["grace"]
	// The Figure 5 trends: Hybrid == Simple at 1.0; Simple blows up;
	// Grace flat-ish; Hybrid at or below Grace.
	if hy[0].Y != si[0].Y {
		t.Errorf("hybrid (%v) != simple (%v) at 1.0", hy[0].Y, si[0].Y)
	}
	if si[len(si)-1].Y < 2*si[0].Y {
		t.Errorf("simple should degrade sharply: %v -> %v", si[0].Y, si[len(si)-1].Y)
	}
	for i := range hy {
		if hy[i].Y > gr[i].Y+1e-9 {
			t.Errorf("hybrid (%v) above grace (%v) at %.3f", hy[i].Y, gr[i].Y, hy[i].X)
		}
	}
	// Every algorithm computes the right result.
	for _, alg := range allAlgs {
		rep, err := h.Run(RunKey{Alg: alg, HPJA: true, Ratio: 0.5, AselB: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ResultCount != int64(h.cfg.InnerN) {
			t.Errorf("%v joinAselB count = %d, want %d", alg, rep.ResultCount, h.cfg.InnerN)
		}
	}
}

func TestExtSpeedup(t *testing.T) {
	cfg := testConfig()
	h := NewHarness(cfg)
	res, err := h.ExtSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Speedup strictly improves with more sites.
	var prev float64
	for i, row := range res.Rows {
		var secs float64
		if _, err := fmt.Sscanf(row[1], "%f", &secs); err != nil {
			t.Fatal(err)
		}
		if i > 0 && secs >= prev {
			t.Errorf("no speedup from %d sites: %.2f -> %.2f", 1<<i, prev, secs)
		}
		prev = secs
	}
}

func TestExtGrowingRelations(t *testing.T) {
	cfg := testConfig()
	cfg.OuterN = 4000
	cfg.InnerN = 400
	h := NewHarness(cfg)
	res, err := h.ExtGrowingRelations()
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string][]Point{}
	for _, s := range res.Series {
		pts[s.Label] = s.Points
	}
	// Footnote 1: the Figure 5 ordering holds when relations outgrow a
	// fixed memory: hybrid stays at or below grace and sort-merge at
	// every size, and simple degrades fastest per unit of data.
	hy, gr, si, sm := pts["hybrid"], pts["grace"], pts["simple"], pts["sort-merge"]
	for i := range hy {
		if hy[i].Y > gr[i].Y+1e-9 || hy[i].Y > sm[i].Y+1e-9 {
			t.Errorf("hybrid (%v) not dominant at %v (grace %v, sm %v)",
				hy[i].Y, hy[i].X, gr[i].Y, sm[i].Y)
		}
	}
	last := len(si) - 1
	if si[last].Y <= si[0].Y {
		t.Errorf("simple per-unit cost should grow as relations outgrow memory: %v -> %v",
			si[0].Y, si[last].Y)
	}
}

func TestExtMultiuser(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.ExtMultiuser()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// At the asymptote the remote configuration must sustain at least the
	// local throughput (the paper's hypothesis).
	last := res.Rows[len(res.Rows)-1]
	var localX, remoteX float64
	fmt.Sscanf(last[1], "%f", &localX)
	fmt.Sscanf(last[3], "%f", &remoteX)
	if remoteX < localX {
		t.Errorf("remote multiuser throughput (%v) below local (%v)", remoteX, localX)
	}
}
