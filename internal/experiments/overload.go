package experiments

import (
	"fmt"
	"time"

	"gammajoin/internal/sched"
)

// OfferedLoadSweep is the goodput experiment's x axis: offered load as a
// multiple of the engine's saturation throughput. 1.0 arrives work exactly
// as fast as the pool can drain it; 2x and 3x are overload.
var OfferedLoadSweep = []float64{0.25, 0.5, 1, 1.5, 2, 3}

// OverloadShedPolicies is the policy set the goodput sweep compares: the
// no-shed baseline against each shedding policy.
var OverloadShedPolicies = []sched.ShedPolicy{
	sched.NoShed, sched.RejectNewest, sched.ShedLargest, sched.Brownout,
}

// overloadQueries is the sweep's workload length — long enough that queue
// growth at 2-3x offered load dominates warmup effects.
const overloadQueries = 24

// overloadQueueCap bounds the admission queue under the shed policies.
const overloadQueueCap = 4

// overloadMPL bounds concurrency at one more than the pool's full-grant
// capacity (the default pool fits two full-demand queries), so memory —
// not the MPL cap — is the binding constraint and Brownout's degraded
// admission actually fires. Unbounded admission would just convert cheap
// queue sheds into expensive mid-run deadline cancels; the bounded MPL is
// what lets the shed policies plateau.
const overloadMPL = 3

// calibrateNominal measures the workload's reference response time T: the
// mean stand-alone (nominal) response of the sweep's own query mix, each at
// full memory grant. Arrival gaps and deadlines derive from it, so the
// sweep self-scales with the harness's relation sizes.
func (h *Harness) calibrateNominal() (time.Duration, error) {
	r, err := h.Workload(WorkloadConfig{
		Queries:      overloadQueries,
		Policy:       sched.FIFO,
		MPL:          1, // serialize: every query runs alone at ratio 1.0
		CacheReports: true,
	})
	if err != nil {
		return 0, fmt.Errorf("calibrate: %w", err)
	}
	var sum time.Duration
	for _, q := range r.Queries {
		sum += q.NominalNs.Dur()
	}
	return sum / time.Duration(len(r.Queries)), nil
}

// GoodputCurve — goodput versus offered load, per shed policy. The paper
// measures closed single-user response times; an open arrival stream adds
// the question the paper leaves to "future multiuser experiments": what
// happens past saturation? Without shedding, every admitted query stretches
// every later one, response times grow without bound, and goodput
// (deadline-met completions per second) collapses — the hockey stick. With
// deadlines enforced and load shed deterministically, wasted work is bounded
// and the goodput curve flattens into a plateau near the saturation peak.
// gammabench's TestGolden pins the report at 10000x1000; the committed
// full-scale curve is docs/results_overload.txt.
func (h *Harness) GoodputCurve() (*Result, error) {
	nominal, err := h.calibrateNominal()
	if err != nil {
		return nil, err
	}
	// The pool fits two full-demand queries (WorkloadConfig default), so
	// saturation throughput is ~2 queries per nominal response: offered
	// load L means a mean gap of T/(2L). Deadlines are 4T — generous for a
	// lightly loaded engine, hopeless once the queue grows without bound.
	deadline := 4 * nominal
	res := &Result{
		ID:    "Extension: overload",
		Title: "goodput vs offered load, per shed policy (deadline 4x nominal)",
		Header: []string{"shed", "load", "gap ms", "goodput q/s", "throughput q/s",
			"completed", "late", "shed", "timeout", "browned", "p95 s"},
	}
	for _, shed := range OverloadShedPolicies {
		for _, load := range OfferedLoadSweep {
			gap := time.Duration(float64(nominal) / (2 * load))
			cap := overloadQueueCap
			if shed == sched.NoShed {
				cap = 0 // the unbounded baseline
			}
			r, err := h.Workload(WorkloadConfig{
				Queries:      overloadQueries,
				MeanGap:      gap,
				Policy:       sched.FIFO,
				MPL:          overloadMPL,
				Deadline:     deadline,
				Shed:         shed,
				QueueCap:     cap,
				CacheReports: true,
			})
			if err != nil {
				return nil, fmt.Errorf("overload %s load=%.4g: %w", shed, load, err)
			}
			res.Rows = append(res.Rows, []string{
				shed.String(),
				fmt.Sprintf("%.2f", load),
				fmt.Sprintf("%.1f", float64(gap.Nanoseconds())/1e6),
				fmt.Sprintf("%.3f", r.GoodputQPS),
				fmt.Sprintf("%.3f", r.ThroughputQPS),
				fmt.Sprint(r.Completed),
				fmt.Sprint(r.Late),
				fmt.Sprint(r.Shed),
				fmt.Sprint(r.TimedOut),
				fmt.Sprint(r.Browned),
				fmt.Sprintf("%.2f", r.P95Ns.Seconds()),
			})
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("same %d-query mixed workload per cell; fifo admission; mean nominal response %.2fs,", overloadQueries, nominal.Seconds()),
		fmt.Sprintf("deadline %.2fs (4x), queue cap %d under the shed policies, unbounded under none;", deadline.Seconds(), overloadQueueCap),
		"past saturation the no-shed queue grows without bound and goodput collapses (the hockey",
		"stick); the shed policies cancel at deadlines and reject at the queue, holding goodput",
		"near its saturation peak (the plateau)")
	return res, nil
}
