package experiments

import (
	"fmt"
	"sort"

	"gammajoin/internal/core"
)

// EstErrorSweep is the mis-estimation sweep of the degradation-curve
// experiment: the factor by which the optimizer's inner-size estimate is
// corrupted. 1 is an exact estimate; 0.25 makes the optimizer believe the
// inner is a quarter of its real size (so Hybrid under-provisions buckets
// and overflows), 4 makes it four times too big (so Hybrid forms buckets it
// never needed).
var EstErrorSweep = []float64{0.25, 0.5, 1, 2, 4}

// DegradationCurve — static versus dynamic Hybrid as the optimizer's
// inner-size estimate goes wrong. Static Hybrid commits to a bucket count
// at plan time: an over-estimate detours tuples through disk buckets that
// would have fit in memory, an under-estimate overflows the hash table at
// run time. Dynamic Hybrid starts every partition resident and spills or
// resurrects on *observed* sizes, so its curve should stay flat where the
// static one climbs. Runs under whatever fault schedule the harness
// carries — TestDegradationCurve adds memory pressure and budget swings, so
// the curve also shows mid-build revocation handling (see docs/SCHEDULER.md,
// "Dynamic Hybrid", and docs/FAULTS.md, "Budget swings").
func (h *Harness) DegradationCurve() (*Result, error) {
	res := &Result{
		ID:    "Extension: degrade",
		Title: "static vs dynamic Hybrid under optimizer mis-estimation (memory ratio 0.5)",
		XName: "est-error",
	}
	static := Series{Label: "hybrid (static)"}
	dyn := Series{Label: "hybrid-dyn"}
	for _, f := range EstErrorSweep {
		ss, err := h.Seconds(RunKey{Alg: core.Hybrid, HPJA: true, Ratio: 0.5, EstError: f})
		if err != nil {
			return nil, fmt.Errorf("degrade: static est-error %.4g: %w", f, err)
		}
		ds, err := h.Seconds(RunKey{Alg: core.HybridDyn, HPJA: true, Ratio: 0.5, EstError: f})
		if err != nil {
			return nil, fmt.Errorf("degrade: dynamic est-error %.4g: %w", f, err)
		}
		static.Points = append(static.Points, Point{X: f, Y: ss})
		dyn.Points = append(dyn.Points, Point{X: f, Y: ds})
	}
	res.Series = []Series{static, dyn}
	res.Notes = append(res.Notes,
		fmt.Sprintf("p95 over sweep: static %.2fs, dynamic %.2fs", seriesP95(static), seriesP95(dyn)),
		"static Hybrid trusts the estimate (buckets fixed at plan time); dynamic Hybrid spills and",
		"resurrects partitions on observed sizes, so mis-estimation moves data, not the plan")
	return res, nil
}

// seriesP95 is the nearest-rank 95th percentile of a series' response
// times — over a 5-point sweep, the worst case.
func seriesP95(s Series) float64 {
	ys := make([]float64, 0, len(s.Points))
	for _, p := range s.Points {
		ys = append(ys, p.Y)
	}
	sort.Float64s(ys)
	if len(ys) == 0 {
		return 0
	}
	idx := (95*len(ys) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(ys) {
		idx = len(ys)
	}
	return ys[idx-1]
}
