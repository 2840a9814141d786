package experiments

import (
	"strings"
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/fault"
)

// testConfig is a scaled-down joinABprime (the shapes survive scaling; the
// full-size runs live in cmd/gammabench and the root benchmarks).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.OuterN = 8000
	cfg.InnerN = 800
	return cfg
}

func TestFigure5ShapesMatchPaper(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]Point{}
	for _, s := range res.Series {
		series[s.Label] = s.Points
	}
	hy, gr, si, sm := series["hybrid"], series["grace"], series["simple"], series["sort-merge"]
	if len(hy) != len(MemRatios) {
		t.Fatalf("hybrid series has %d points", len(hy))
	}
	for i := range hy {
		// Hybrid dominates every other algorithm at every ratio.
		if hy[i].Y > gr[i].Y+1e-9 || hy[i].Y > si[i].Y+1e-9 || hy[i].Y > sm[i].Y+1e-9 {
			t.Errorf("hybrid not dominant at ratio %.3f: h=%.1f g=%.1f s=%.1f sm=%.1f",
				hy[i].X, hy[i].Y, gr[i].Y, si[i].Y, sm[i].Y)
		}
	}
	// Hybrid == Simple at full memory.
	if hy[0].Y != si[0].Y {
		t.Errorf("hybrid (%v) != simple (%v) at ratio 1.0", hy[0].Y, si[0].Y)
	}
	// Grace is relatively flat compared to Simple: at this scale fixed
	// per-bucket scheduling still grows the curve, so require Grace's
	// swing to be well under half of Simple's.
	swing := func(ps []Point) float64 {
		lo, hi := ps[0].Y, ps[0].Y
		for _, p := range ps {
			if p.Y < lo {
				lo = p.Y
			}
			if p.Y > hi {
				hi = p.Y
			}
		}
		return (hi - lo) / lo
	}
	if gs, ss := swing(gr), swing(si); gs > ss/2 {
		t.Errorf("grace swings %.0f%%, simple %.0f%%; grace should be much flatter", 100*gs, 100*ss)
	}
	// Simple degrades superlinearly: last point at least 3x its first.
	if si[len(si)-1].Y < 3*si[0].Y {
		t.Errorf("simple at 1/8 memory (%v) should be >=3x its full-memory time (%v)",
			si[len(si)-1].Y, si[0].Y)
	}
	// Sort-merge is dominated by hybrid and grace everywhere.
	for i := range sm {
		if sm[i].Y < gr[i].Y {
			t.Errorf("sort-merge (%v) beat grace (%v) at ratio %.3f", sm[i].Y, gr[i].Y, sm[i].X)
		}
	}
}

func TestFigure6ConstantOffsetFromFigure5(t *testing.T) {
	h := NewHarness(testConfig())
	f5, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "the corresponding curves in Figures 5 and 6 differ by a
	// constant factor over all memory availabilities" — non-HPJA is
	// uniformly slower. (Simple's overflow levels are non-HPJA either
	// way, so its offset shrinks at low memory; check the first points.)
	for i, s5 := range f5.Series {
		s6 := f6.Series[i]
		for j := range s5.Points[:2] {
			if s6.Points[j].Y <= s5.Points[j].Y {
				t.Errorf("%s at ratio %.3f: non-HPJA (%v) not slower than HPJA (%v)",
					s5.Label, s5.Points[j].X, s6.Points[j].Y, s5.Points[j].Y)
			}
		}
	}
}

func TestFigure7Tradeoff(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	var pess, over []Point
	for _, s := range res.Series {
		switch s.Label {
		case "2 buckets (pessimistic)":
			pess = s.Points
		case "1 bucket + overflow (optimistic)":
			over = s.Points
		}
	}
	if len(pess) == 0 || len(over) == 0 {
		t.Fatal("missing series")
	}
	// At the endpoints the strategies coincide with the true runs.
	if over[0].Y != pess[0].Y {
		t.Errorf("at 0.5 both strategies should match: %v vs %v", over[0].Y, pess[0].Y)
	}
	// Near 1.0 the optimistic strategy must win; just above 0.5 the
	// pessimistic one must win (the paper's tradeoff).
	last := len(over) - 1
	if over[last].Y >= pess[last].Y {
		t.Errorf("at 1.0 optimistic (%v) should beat 2 buckets (%v)", over[last].Y, pess[last].Y)
	}
	if over[1].Y <= pess[1].Y {
		t.Errorf("just above 0.5 overflow (%v) should lose to 2 buckets (%v)", over[1].Y, pess[1].Y)
	}
}

func TestFiguresWithFiltersAreFaster(t *testing.T) {
	h := NewHarness(testConfig())
	f5, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f5.Series {
		for j, p := range s.Points {
			if f8.Series[i].Points[j].Y >= p.Y {
				t.Errorf("%s at %.3f: filtered (%v) not faster than plain (%v)",
					s.Label, p.X, f8.Series[i].Points[j].Y, p.Y)
			}
		}
	}
}

func TestFigures10to13(t *testing.T) {
	h := NewHarness(testConfig())
	figs, err := h.Figures10to13()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("got %d figures, want 4", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Fatalf("%s has %d series", f.ID, len(f.Series))
		}
	}
}

func TestFigure16HybridCrossover(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.Figure16()
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string][]Point{}
	for _, s := range res.Series {
		pts[s.Label] = s.Points
	}
	hl, hr := pts["hybrid local"], pts["hybrid remote"]
	// Paper: remote wins at full memory; local catches up (and crosses)
	// as memory shrinks.
	if hl[0].Y <= hr[0].Y {
		t.Errorf("at 1.0 non-HPJA hybrid remote (%v) should beat local (%v)", hr[0].Y, hl[0].Y)
	}
	gap0 := hl[0].Y - hr[0].Y
	gapEnd := hl[len(hl)-1].Y - hr[len(hr)-1].Y
	if gapEnd >= gap0 {
		t.Errorf("local/remote gap should shrink as memory drops: %.2f -> %.2f", gap0, gapEnd)
	}
	// Simple never crosses over (paper).
	sl, sr := pts["simple local"], pts["simple remote"]
	for i := range sl {
		if sl[i].Y < sr[i].Y {
			t.Errorf("simple local (%v) beat remote (%v) at %.3f; paper says it never does",
				sl[i].Y, sr[i].Y, sl[i].X)
		}
	}
}

func TestFigure15HPJALocalWins(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.Figure15()
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string][]Point{}
	for _, s := range res.Series {
		pts[s.Label] = s.Points
	}
	// Grace and Hybrid HPJA joins run faster locally across the range.
	for _, alg := range []string{"grace", "hybrid"} {
		l, r := pts[alg+" local"], pts[alg+" remote"]
		for i := range l {
			if l[i].Y > r[i].Y {
				t.Errorf("%s HPJA at %.3f: local (%v) slower than remote (%v)",
					alg, l[i].X, l[i].Y, r[i].Y)
			}
		}
	}
	// Simple crosses: local wins at 1.0 and its advantage erodes as
	// overflow turns the join non-HPJA (at full scale remote wins
	// outright at 1/8; at test scale we assert the monotone trend).
	sl, sr := pts["simple local"], pts["simple remote"]
	if sl[0].Y > sr[0].Y {
		t.Errorf("simple HPJA at 1.0: local (%v) should win over remote (%v)", sl[0].Y, sr[0].Y)
	}
	last := len(sl) - 1
	if sr[last].Y-sl[last].Y >= sr[0].Y-sl[0].Y {
		t.Errorf("simple HPJA: local's edge should erode with overflow (%.2f -> %.2f)",
			sr[0].Y-sl[0].Y, sr[last].Y-sl[last].Y)
	}
}

func TestTable1(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	// Spot-check the paper's Table 1 cells.
	for _, want := range []string{"0,12,24", "5,17,29", "11,23,35"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2LocalWriteGap(t *testing.T) {
	h := NewHarness(testConfig())
	if _, err := h.Table2(); err != nil {
		t.Fatal(err)
	}
	// Check the raw reports behind the table.
	hp, err := h.Run(RunKey{Alg: core.Hybrid, Remote: true, HPJA: true, Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	np, err := h.Run(RunKey{Alg: core.Hybrid, Remote: true, HPJA: false, Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if hp.FormingLocalFrac() < 0.99 {
		t.Errorf("HPJA forming local fraction %.3f, want ~1.0", hp.FormingLocalFrac())
	}
	nf := np.FormingLocalFrac()
	if nf < 0.05 || nf > 0.25 {
		t.Errorf("non-HPJA forming local fraction %.3f, want ~1/8", nf)
	}
}

func TestTable3And4(t *testing.T) {
	h := NewHarness(testConfig())
	t3, err := h.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 8 {
		t.Fatalf("Table 3 has %d rows, want 8", len(t3.Rows))
	}
	t4, err := h.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t4.Rows {
		for _, cell := range row[1:] {
			if !strings.HasSuffix(cell, "%") {
				t.Fatalf("Table 4 cell %q not a percentage", cell)
			}
			if strings.HasPrefix(cell, "-") {
				t.Errorf("bit filters made %s slower: %s", row[0], cell)
			}
		}
	}
}

func TestTable3SkewEffects(t *testing.T) {
	h := NewHarness(testConfig())
	// NU joins must overflow the hash tables (the paper's key skew
	// observation), while UU must not.
	uu, err := h.Run(table3Key(core.Hybrid, "UU", 1.0, false))
	if err != nil {
		t.Fatal(err)
	}
	nu, err := h.Run(table3Key(core.Hybrid, "NU", 1.0, false))
	if err != nil {
		t.Fatal(err)
	}
	if uu.OverflowClears != 0 {
		t.Errorf("UU at 100%% overflowed (%d clears)", uu.OverflowClears)
	}
	if nu.OverflowClears == 0 {
		t.Errorf("NU at 100%% did not overflow; the skewed inner should")
	}
	if nu.Response <= uu.Response {
		t.Errorf("NU (%v) should be slower than UU (%v) for hybrid", nu.Response, uu.Response)
	}
	if nu.AvgChain <= uu.AvgChain {
		t.Errorf("NU chains (%.2f) should exceed UU chains (%.2f)", nu.AvgChain, uu.AvgChain)
	}
	// Result cardinalities: UU and NU both produce one match per inner
	// tuple; UN close to it; checked exactly.
	if uu.ResultCount != int64(h.cfg.InnerN) || nu.ResultCount != int64(h.cfg.InnerN) {
		t.Errorf("result counts UU=%d NU=%d, want %d", uu.ResultCount, nu.ResultCount, h.cfg.InnerN)
	}
}

func TestSortMergeEarlyTermination(t *testing.T) {
	// The paper's Section 4.4 sort-merge effect: when the inner relation's
	// join values are skewed (max ~53071), the merge phase stops before
	// reading all of the sorted outer file. NU must therefore read fewer
	// pages and run faster than UN, whose outer is fully consumed.
	h := NewHarness(testConfig())
	nu, err := h.Run(table3Key(core.SortMerge, "NU", 1.0, false))
	if err != nil {
		t.Fatal(err)
	}
	un, err := h.Run(table3Key(core.SortMerge, "UN", 1.0, false))
	if err != nil {
		t.Fatal(err)
	}
	if nu.Disk.PagesRead >= un.Disk.PagesRead {
		t.Errorf("NU read %d pages, UN %d; early termination should save reads",
			nu.Disk.PagesRead, un.Disk.PagesRead)
	}
	if nu.Response >= un.Response {
		t.Errorf("sort-merge NU (%v) should beat UN (%v)", nu.Response, un.Response)
	}
}

func TestAppendixA(t *testing.T) {
	h := NewHarness(testConfig())
	res, err := h.AppendixA()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	if !strings.Contains(out, "use 4 buckets") {
		t.Errorf("Appendix A should show the analyzer bumping 3 to 4 buckets:\n%s", out)
	}
}

// The degradation curve: both series cover the sweep, and under memory
// pressure with budget swings the dynamic join's worst case (p95 over the
// sweep) stays below the static one, at the flags of gammabench's pinned
// degrade row.
func TestDegradationCurve(t *testing.T) {
	// A notch above the usual test scale: the adaptive win is real data
	// moving (spilled partitions re-read vs static's overflow resolution),
	// so at toy sizes the fixed per-phase scheduler startups of the extra
	// disk-join groups drown it. 20k x 2k is the smallest scale where the
	// bench-scale shape (dynamic flat, static climbing) is stable.
	cfg := testConfig()
	cfg.OuterN = 20000
	cfg.InnerN = 2000
	cfg.Faults = &fault.Spec{Seed: 77, MemPressureRate: 0.5, BudgetSwingRate: 0.5}
	h := NewHarness(cfg)
	res, err := h.DegradationCurve()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	static, dyn := res.Series[0], res.Series[1]
	if len(static.Points) != len(EstErrorSweep) || len(dyn.Points) != len(EstErrorSweep) {
		t.Fatalf("series lengths %d/%d, want %d", len(static.Points), len(dyn.Points), len(EstErrorSweep))
	}
	if sp, dp := seriesP95(static), seriesP95(dyn); dp >= sp {
		t.Errorf("p95 over sweep: dynamic %.3fs should beat static %.3fs under pressure", dp, sp)
	}
}

func TestCatalogAndFind(t *testing.T) {
	if len(Catalog) != 26 {
		t.Fatalf("catalog has %d entries", len(Catalog))
	}
	if _, err := Find("overload"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("mpl-sweep"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find of unknown experiment should error")
	}
}

func TestFormatTable(t *testing.T) {
	r := &Result{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := r.Format()
	for _, want := range []string{"T — demo", "a    bb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatFigure(t *testing.T) {
	r := &Result{
		ID:    "F",
		Title: "fig",
		XName: "x",
		Series: []Series{
			{Label: "s1", Points: []Point{{X: 1, Y: 2.5}, {X: 0.5, Y: 3.5}}},
		},
	}
	out := r.Format()
	if !strings.Contains(out, "2.50") || !strings.Contains(out, "0.500") {
		t.Errorf("figure format wrong:\n%s", out)
	}
}

func TestRunCaching(t *testing.T) {
	h := NewHarness(testConfig())
	k := RunKey{Alg: core.Hybrid, HPJA: true, Ratio: 1.0}
	a, err := h.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Run did not hit the cache")
	}
}

func TestSkewAttrsValidation(t *testing.T) {
	if _, _, err := skewAttrs("XX"); err == nil {
		t.Fatal("bad skew letters should error")
	}
	if _, _, err := skewAttrs("U"); err == nil {
		t.Fatal("short skew type should error")
	}
}

func TestPlot(t *testing.T) {
	r := &Result{
		ID: "F", Title: "fig", XName: "x",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 0.125, Y: 10}, {X: 1, Y: 100}}},
			{Label: "b", Points: []Point{{X: 0.125, Y: 50}, {X: 1, Y: 50}}},
		},
	}
	out := r.Plot(40, 10)
	if !strings.Contains(out, "* = a") || !strings.Contains(out, "o = b") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "100.0") {
		t.Fatalf("y scale missing:\n%s", out)
	}
	if !strings.Contains(out, "(x)") {
		t.Fatalf("x label missing:\n%s", out)
	}
	// Tables don't plot.
	if (&Result{Header: []string{"a"}}).Plot(40, 10) != "" {
		t.Fatal("table plotted")
	}
	// Degenerate series don't plot.
	if (&Result{Series: []Series{{Label: "a", Points: []Point{{X: 1, Y: 0}}}}}).Plot(40, 10) != "" {
		t.Fatal("degenerate series plotted")
	}
}

func TestRunAllTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog run")
	}
	cfg := testConfig()
	cfg.OuterN = 2000
	cfg.InnerN = 200
	h := NewHarness(cfg)
	var results []*Result
	for _, e := range Catalog {
		rs, err := e.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		results = append(results, rs...)
	}
	if len(results) < 20 {
		t.Fatalf("the catalog produced %d results", len(results))
	}
	for _, r := range results {
		if out := r.Format(); len(out) < 20 {
			t.Fatalf("%s rendered nothing", r.ID)
		}
	}
}
