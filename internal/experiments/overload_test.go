package experiments

import (
	"strconv"
	"testing"

	"gammajoin/internal/sched"
)

// The goodput sweep's headline shape (docs/EXPERIMENTS.md, "Goodput under
// overload"): past saturation the no-shed baseline's goodput collapses —
// every admitted query stretches every later one, the hockey stick — while
// the shedding policies hold goodput at 2x offered load within 10% of
// their saturation (1x) value, the plateau. It holds at the test scale and
// at the 10000x1000 scale of TestGolden's overload row.
func TestGoodputPlateau(t *testing.T) {
	for _, outer := range []int{8000, 10000} {
		cfg := testConfig()
		cfg.OuterN, cfg.InnerN = outer, outer/10
		t.Run(strconv.Itoa(outer), func(t *testing.T) { checkGoodputPlateau(t, cfg) })
	}
}

func checkGoodputPlateau(t *testing.T, cfg Config) {
	res, err := NewHarness(cfg).GoodputCurve()
	if err != nil {
		t.Fatal(err)
	}
	goodput := map[string]map[string]float64{}
	for _, r := range res.Rows {
		g, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if goodput[r[0]] == nil {
			goodput[r[0]] = map[string]float64{}
		}
		goodput[r[0]][r[1]] = g
	}
	var nonePeak float64
	for _, g := range goodput["none"] {
		if g > nonePeak {
			nonePeak = g
		}
	}
	if n2 := goodput["none"]["2.00"]; n2 >= 0.5*nonePeak {
		t.Errorf("no-shed did not collapse: goodput(2x) %.3f vs peak %.3f", n2, nonePeak)
	}
	for _, shed := range []sched.ShedPolicy{sched.RejectNewest, sched.ShedLargest, sched.Brownout} {
		g := goodput[shed.String()]
		sat, two := g["1.00"], g["2.00"]
		if sat <= 0 {
			t.Fatalf("%v: no saturation goodput parsed from %v", shed, g)
		}
		if two < 0.9*sat {
			t.Errorf("%v: plateau broken: goodput(2x) %.3f below 90%% of saturation %.3f", shed, two, sat)
		}
	}
}

// Every workload cell of the sweep must honor the engine invariant: a
// completed query never exceeds its deadline under a shedding policy.
func TestGoodputSweepCompletionsMeetDeadlines(t *testing.T) {
	h := NewHarness(testConfig())
	nominal, err := h.calibrateNominal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Workload(WorkloadConfig{
		Queries:      overloadQueries,
		MeanGap:      nominal / 4, // 2x offered load
		Policy:       sched.FIFO,
		MPL:          overloadMPL,
		Deadline:     4 * nominal,
		Shed:         sched.ShedLargest,
		QueueCap:     overloadQueueCap,
		CacheReports: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range r.Queries {
		if q.Outcome == sched.OutcomeCompleted && !q.DeadlineMet() {
			t.Errorf("completed q%d overran its deadline: %v > %v", q.ID, q.ResponseNs, q.DeadlineNs)
		}
	}
	if r.Completed == 0 || r.Shed+r.TimedOut == 0 {
		t.Errorf("2x cell not overloaded as intended: %d completed, %d shed, %d timed out",
			r.Completed, r.Shed, r.TimedOut)
	}
	if !r.Overload || r.GoodputQPS <= 0 {
		t.Errorf("overload accounting missing: Overload=%v goodput=%.3f", r.Overload, r.GoodputQPS)
	}
}
