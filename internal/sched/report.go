package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/trace"
)

// QueryResult is one query's fate through the workload.
type QueryResult struct {
	ID     int
	Alg    core.Algorithm
	HPJA   bool
	Filter bool
	Small  bool

	ArriveNs cost.SimNs // simulated arrival
	AdmitNs  cost.SimNs // admission (grant handed out, execution planned)
	FinishNs cost.SimNs // last phase drained on the shared timeline

	DemandBytes int64
	GrantBytes  int64
	// RatioAtAdmission is GrantBytes/DemandBytes — the memory-to-inner-
	// relation ratio (Figures 5-9) this query actually ran at, decided by
	// the admission policy rather than by the experimenter.
	RatioAtAdmission float64

	// NominalNs is the query's stand-alone response time (its report's
	// response at the granted memory); ResponseNs = FinishNs-ArriveNs is
	// what the workload delivered, queueing and interference included.
	NominalNs  cost.SimNs
	ResponseNs cost.SimNs
	WaitNs     cost.SimNs // AdmitNs - ArriveNs

	ResultCount int64
	ResultSum   uint64

	Report *core.Report // full single-query report (trace included)

	// Outcome is the query's fate: completed, or one of the shed/timeout
	// outcomes (overload.go). Shed and timed-out queries carry no Report;
	// their FinishNs is the shed instant and their ResponseNs the time
	// wasted on them. Canceled queries keep their Report (the nominal
	// schedule they were abandoned partway through) but deliver no results.
	Outcome Outcome
	// Browned marks a Brownout degraded-grant admission.
	Browned bool
	// DeadlineNs is the query's relative deadline (0 = none).
	DeadlineNs cost.SimNs
}

// Stretch is the response-time inflation over running alone: ResponseNs
// divided by NominalNs.
func (q *QueryResult) Stretch() float64 {
	if q.NominalNs <= 0 {
		return 1
	}
	return float64(q.ResponseNs.Nanoseconds()) / float64(q.NominalNs.Nanoseconds())
}

// DeadlineMet reports whether the query completed within its deadline.
// Queries without a deadline meet it by completing; shed, timed-out, and
// canceled queries never do.
func (q *QueryResult) DeadlineMet() bool {
	if q.Outcome != OutcomeCompleted {
		return false
	}
	return q.DeadlineNs <= 0 || q.ResponseNs <= q.DeadlineNs
}

// Result is the workload engine's report.
type Result struct {
	Policy Policy
	MPL    int

	PoolTotal int64
	PoolPeak  int64

	Queries []QueryResult // arrival order

	MakespanNs cost.SimNs // last finish on the simulated clock
	// ThroughputQPS is completed queries per simulated second of makespan.
	ThroughputQPS float64

	// Response-time percentiles (nearest-rank) over FinishNs-ArriveNs.
	P50Ns, P95Ns, P99Ns cost.SimNs
	MeanWaitNs          cost.SimNs

	PeakMPL int // most queries concurrently resident

	// Revocation traffic (ShrinkRevoke only; zero under the other
	// policies, whose reports must stay byte-identical to pre-revoke
	// builds).
	RevokedBytes   int64
	RegrantedBytes int64
	Revokes        int

	// SitePeak is each site's lease high-water mark, indexed by site: the
	// most queries that simultaneously held unfinished work there.
	SitePeak []int

	// Overload accounting (zero / absent unless overload control is in
	// play; Overload gates the extra report lines so pre-overload runs
	// stay byte-identical).
	Overload   bool
	ShedPolicy ShedPolicy
	QueueCap   int

	Completed            int // queries that ran to completion
	Late                 int // completed past their deadline (NoShed only)
	Shed                 int // shed at the queue or by starvation
	TimedOut             int // timed out waiting or canceled mid-run
	Browned              int // admitted with a Brownout degraded grant
	RetryBudgetExhausted int // shed after exhausting their retry budget

	// GoodputQPS counts only deadline-met completions per simulated second
	// of makespan — the curve the goodput sweep plots against offered
	// load. Equal to ThroughputQPS when no query has a deadline.
	GoodputQPS float64

	// QueueDepthPeak is the admission queue's high-water mark.
	QueueDepthPeak int

	// Metrics is the engine's event-sampled registry: sched.shed and
	// sched.timeout counters plus the sched.queue.depth gauge, exported in
	// the same TSV schema as the per-query recovery metrics.
	Metrics *trace.Metrics
}

// buildResult assembles the workload report after the event loop drains.
func (e *Engine) buildResult(queries []*Query, admitted map[int]*runq) *Result {
	res := &Result{
		Policy:    e.cfg.Policy,
		MPL:       e.cfg.MPL,
		PoolTotal: e.cfg.Pool.Total(),
		PoolPeak:  e.cfg.Pool.Peak(),
		PeakMPL:   e.peakMPL,
		SitePeak:  e.sitePeak,

		RevokedBytes:   e.cfg.Pool.Revoked(),
		RegrantedBytes: e.cfg.Pool.Regranted(),
		Revokes:        e.cfg.Pool.Revokes(),

		ShedPolicy:     e.cfg.Shed,
		QueueCap:       e.cfg.QueueCap,
		QueueDepthPeak: e.queueDepthPeak,
		Metrics:        e.metrics,
	}
	var waitSum cost.SimNs
	var shedLast cost.SimNs
	var onTime int
	for _, q := range queries {
		r := admitted[q.ID]
		var qr QueryResult
		if r == nil {
			// Never admitted: shed at the queue, timed out waiting, or
			// shed on a retry-budget exhaustion at admission.
			sr := e.sheds[q.ID]
			qr = QueryResult{
				ID:          q.ID,
				Alg:         q.Alg,
				HPJA:        q.HPJA,
				Filter:      q.Filter,
				Small:       q.Small,
				ArriveNs:    q.ArriveNs,
				AdmitNs:     sr.atNs,
				FinishNs:    sr.atNs,
				DemandBytes: q.DemandBytes,
				ResponseNs:  sr.atNs - q.ArriveNs,
				WaitNs:      sr.atNs - q.ArriveNs,
				Outcome:     sr.outcome,
				DeadlineNs:  q.DeadlineNs,
			}
			if qr.FinishNs > shedLast {
				shedLast = qr.FinishNs
			}
		} else {
			qr = QueryResult{
				ID:          q.ID,
				Alg:         q.Alg,
				HPJA:        q.HPJA,
				Filter:      q.Filter,
				Small:       q.Small,
				ArriveNs:    q.ArriveNs,
				AdmitNs:     r.admitNs,
				FinishNs:    r.finishNs,
				DemandBytes: q.DemandBytes,
				GrantBytes:  r.grant,
				NominalNs:   cost.DurNs(r.rep.Response),
				ResponseNs:  r.finishNs - q.ArriveNs,
				WaitNs:      r.admitNs - q.ArriveNs,
				ResultCount: r.rep.ResultCount,
				ResultSum:   r.rep.ResultSum,
				Report:      r.rep,
				Outcome:     r.outcome,
				Browned:     r.browned,
				DeadlineNs:  q.DeadlineNs,
			}
			if q.DemandBytes > 0 {
				qr.RatioAtAdmission = float64(r.grant) / float64(q.DemandBytes)
			}
			if r.outcome == OutcomeCanceled {
				// Canceled mid-run: no results were delivered.
				qr.ResultCount, qr.ResultSum = 0, 0
				if qr.FinishNs > shedLast {
					shedLast = qr.FinishNs
				}
			}
		}
		switch {
		case qr.Outcome == OutcomeCompleted:
			res.Completed++
			waitSum += qr.WaitNs
			if qr.FinishNs > res.MakespanNs {
				res.MakespanNs = qr.FinishNs
			}
			if qr.DeadlineMet() {
				onTime++
			} else if qr.DeadlineNs > 0 {
				res.Late++
			}
		case qr.Outcome == OutcomeShedQueue || qr.Outcome == OutcomeShedStarved ||
			qr.Outcome == OutcomeShedInfeasible:
			res.Shed++
		case qr.Outcome == OutcomeTimedOutQueued || qr.Outcome == OutcomeCanceled:
			res.TimedOut++
		case qr.Outcome == OutcomeShedBudget:
			res.RetryBudgetExhausted++
		}
		if qr.Browned {
			res.Browned++
		}
		res.Queries = append(res.Queries, qr)
	}
	if res.MakespanNs == 0 {
		// Nothing completed: the makespan is the last shed decision.
		res.MakespanNs = shedLast
	}
	// Throughput, percentiles, and mean wait cover completed queries only —
	// identical to the pre-overload report whenever nothing is shed.
	if n := res.Completed; n > 0 {
		res.MeanWaitNs = waitSum.Div(int64(n))
		if res.MakespanNs > 0 {
			res.ThroughputQPS = float64(n) / res.MakespanNs.Seconds()
		}
		resp := make([]cost.SimNs, 0, n)
		for _, qr := range res.Queries {
			if qr.Outcome == OutcomeCompleted {
				resp = append(resp, qr.ResponseNs)
			}
		}
		sort.Slice(resp, func(i, j int) bool { return resp[i] < resp[j] })
		res.P50Ns = percentile(resp, 50)
		res.P95Ns = percentile(resp, 95)
		res.P99Ns = percentile(resp, 99)
	}
	if res.MakespanNs > 0 {
		res.GoodputQPS = float64(onTime) / res.MakespanNs.Seconds()
	}
	res.Overload = e.cfg.Shed != NoShed || e.cfg.QueueCap > 0 ||
		res.Completed < len(res.Queries)
	if !res.Overload {
		for _, q := range queries {
			if q.DeadlineNs > 0 {
				res.Overload = true
				break
			}
		}
	}
	return res
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []cost.SimNs, p int) cost.SimNs {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

func ms(ns cost.SimNs) float64 { return ns.Millis() }

// WriteText renders the workload report as a fixed-layout text table. All
// values derive from simulated time and integer counters, so two identical
// runs print byte-identical reports — the CLI's -mpl output sits under the
// same determinism gate as the single-query experiments.
func (r *Result) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload: %d queries, policy %s, mpl %s, pool %.1f MB\n",
		len(r.Queries), r.Policy, mplLabel(r.MPL), float64(r.PoolTotal)/(1<<20))
	fmt.Fprintf(bw, "%3s  %-10s %-5s %-5s %-5s %10s %9s %9s %6s %10s %10s %8s %9s  %s\n",
		"q", "alg", "hpja", "filt", "small", "arrive_ms", "wait_ms", "grant_KB",
		"ratio", "nominal_ms", "resp_ms", "stretch", "results", "checksum")
	for _, q := range r.Queries {
		// tag is "" on every pre-overload row, keeping old reports
		// byte-identical; shed/browned rows carry a trailing marker.
		tag := ""
		if q.Outcome != OutcomeCompleted {
			tag = fmt.Sprintf("  [%s]", q.Outcome)
		} else if q.Browned {
			tag = "  [brownout]"
		}
		fmt.Fprintf(bw, "%3d  %-10s %-5v %-5v %-5v %10.1f %9.1f %9.0f %6.3f %10.1f %10.1f %8.2f %9d  %016x%s\n",
			q.ID, q.Alg, q.HPJA, q.Filter, q.Small,
			ms(q.ArriveNs), ms(q.WaitNs), float64(q.GrantBytes)/1024,
			q.RatioAtAdmission, ms(q.NominalNs), ms(q.ResponseNs), q.Stretch(),
			q.ResultCount, q.ResultSum, tag)
	}
	fmt.Fprintf(bw, "makespan %.3f sim-s, throughput %.3f q/s\n",
		r.MakespanNs.Seconds(), r.ThroughputQPS)
	fmt.Fprintf(bw, "response p50 %.1f ms, p95 %.1f ms, p99 %.1f ms; mean admission wait %.1f ms\n",
		ms(r.P50Ns), ms(r.P95Ns), ms(r.P99Ns), ms(r.MeanWaitNs))
	fmt.Fprintf(bw, "pool peak %.1f%% of %.1f MB; peak concurrency %d; site leases:",
		poolPct(r.PoolPeak, r.PoolTotal), float64(r.PoolTotal)/(1<<20), r.PeakMPL)
	for s, peak := range r.SitePeak {
		if peak > 0 {
			fmt.Fprintf(bw, " %d:%d", s, peak)
		}
	}
	fmt.Fprintln(bw)
	if r.Policy == ShrinkRevoke {
		fmt.Fprintf(bw, "revocations %d: %.0f KB revoked, %.0f KB re-granted\n",
			r.Revokes, float64(r.RevokedBytes)/1024, float64(r.RegrantedBytes)/1024)
	}
	if r.Overload {
		// These lines appear only when overload control is in play, so
		// pre-overload reports stay byte-identical.
		cap := "unbounded"
		if r.QueueCap > 0 {
			cap = fmt.Sprintf("%d", r.QueueCap)
		}
		fmt.Fprintf(bw, "overload: shed policy %s, queue cap %s, peak queue depth %d\n",
			r.ShedPolicy, cap, r.QueueDepthPeak)
		fmt.Fprintf(bw, "outcomes: %d completed (%d late), %d shed, %d timed out, %d browned, %d budget-exhausted\n",
			r.Completed, r.Late, r.Shed, r.TimedOut, r.Browned, r.RetryBudgetExhausted)
		fmt.Fprintf(bw, "goodput %.3f q/s (deadline-met completions)\n", r.GoodputQPS)
	}
	return bw.Flush()
}

func poolPct(peak, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(peak) / float64(total)
}

func mplLabel(mpl int) string {
	if mpl <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", mpl)
}
