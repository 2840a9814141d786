package experiments

import (
	"fmt"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/sched"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// Multi-query workloads: the harness side of the internal/sched engine.
// The harness supplies what the engine abstracts away — relations, the
// cluster, and the executor that turns an admitted (query, grant) pair into
// a real core.Run — and an experiment (mpl-sweep) that sweeps the
// multiprogramming level under each admission policy.

// WorkloadConfig parameterizes one workload run.
type WorkloadConfig struct {
	Queries     int           // number of queries (default 8)
	ArrivalSeed uint64        // workload-generator seed (default harness seed)
	MeanGap     time.Duration // mean inter-arrival gap in simulated time (default 2s)
	Policy      sched.Policy
	MPL         int // max concurrent queries; <=0 = unlimited

	// PoolBytes is the cluster-wide join-memory pool; 0 defaults to twice
	// the full-size inner relation, so two full-demand queries fit at
	// memory ratio 1.0 and further concurrency is paid for in memory.
	PoolBytes int64

	// Remote joins on the diskless processors. The default (local) is the
	// paper's Table 2 setting, where HPJA queries short-circuit the wire.
	Remote bool

	// CacheReports reuses one core.Run per (shape, grant) across the
	// workload. Reports are deterministic in exactly that pair, so caching
	// changes nothing the engine consumes — but cached reports carry the
	// first query's id in their trace, so leave this off when exporting
	// per-query timelines.
	CacheReports bool

	// Overload knobs (docs/SCHEDULER.md, "Overload and shedding"). Zero
	// values reproduce the pre-overload engine byte for byte.
	Deadline time.Duration    // per-query relative deadline; 0 = none
	Shed     sched.ShedPolicy // load-shedding policy
	QueueCap int              // admission-queue bound; 0 = unbounded
	ShedSeed uint64           // shed-victim tie-break salt

	// BurstRate/BurstLen make the workload generator collapse runs of
	// inter-arrival gaps to zero — seeded arrival bursts for the bounded
	// admission queue.
	BurstRate float64
	BurstLen  int
}

// workKey identifies one cacheable workload execution: the query shape plus
// the admitted memory grant. Everything else about a workload run (arrival
// time, policy, interleaving) happens outside core.Run.
type workKey struct {
	alg                 core.Algorithm
	hpja, filter, small bool
	remote              bool
	grant               int64
}

func (wc *WorkloadConfig) withDefaults(h *Harness) WorkloadConfig {
	out := *wc
	if out.Queries <= 0 {
		out.Queries = 8
	}
	if out.ArrivalSeed == 0 {
		out.ArrivalSeed = h.cfg.Seed
	}
	if out.MeanGap <= 0 {
		out.MeanGap = 2 * time.Second
	}
	if out.PoolBytes <= 0 {
		out.PoolBytes = 2 * int64(h.cfg.InnerN) * tuple.Bytes
	}
	return out
}

// smallTuples generates the half-sized relation pair used by "small"
// workload queries: a fresh half-cardinality Wisconsin outer and its Bprime
// inner, so every inner tuple still joins exactly once.
func (h *Harness) smallTuples() ([]tuple.Tuple, []tuple.Tuple) {
	if h.smallOuter == nil {
		h.smallOuter = wisconsin.Generate(h.cfg.OuterN/2, h.cfg.Seed+17)
		h.smallInner = wisconsin.Bprime(h.smallOuter, int32(h.cfg.InnerN/2))
	}
	return h.smallOuter, h.smallInner
}

// workloadRelations loads (or fetches) the relation pair for one workload
// query shape. HPJA queries join on the hash-partitioning attribute
// (unique1); non-HPJA relations are partitioned on unique2 so the join must
// redistribute.
func (h *Harness) workloadRelations(remote, hpja, small bool) (relPair, error) {
	partAttr := tuple.Unique1
	if !hpja {
		partAttr = tuple.Unique2
	}
	if !small {
		return h.relations(RunKey{Remote: remote, HPJA: hpja})
	}
	rk := relKey{remote: remote, partAttr: partAttr, small: true}
	if p, ok := h.rels[rk]; ok {
		return p, nil
	}
	outer, inner := h.smallTuples()
	c, err := h.cluster(remote)
	if err != nil {
		return relPair{}, err
	}
	s, err := gamma.Load(c, fmt.Sprintf("Asmall.p%d", partAttr), outer, gamma.HashPart, partAttr)
	if err != nil {
		return relPair{}, err
	}
	r, err := gamma.Load(c, fmt.Sprintf("Bsmall.p%d", partAttr), inner, gamma.HashPart, partAttr)
	if err != nil {
		return relPair{}, err
	}
	p := relPair{r: r, s: s, rAttr: tuple.Unique1, sAttr: tuple.Unique1}
	h.rels[rk] = p
	return p, nil
}

// workloadExec builds the engine's executor: a real core.Run of the admitted
// query at exactly its granted memory, tagged with the query id for the
// trace and the temp-file namespace.
func (h *Harness) workloadExec(wc WorkloadConfig) sched.Exec {
	return func(q *sched.Query, grant int64) (*core.Report, error) {
		key := workKey{alg: q.Alg, hpja: q.HPJA, filter: q.Filter,
			small: q.Small, remote: wc.Remote, grant: grant}
		if wc.CacheReports {
			if rep, ok := h.workCache[key]; ok {
				return rep, nil
			}
		}
		rels, err := h.workloadRelations(wc.Remote, q.HPJA, q.Small)
		if err != nil {
			return nil, err
		}
		spec := core.Spec{
			Alg:         q.Alg,
			R:           rels.r,
			S:           rels.s,
			RAttr:       rels.rAttr,
			SAttr:       rels.sAttr,
			MemBytes:    grant,
			BitFilter:   q.Filter,
			StoreResult: true,
			QueryID:     q.ID,
		}
		c, err := h.cluster(wc.Remote)
		if err != nil {
			return nil, err
		}
		rep, err := core.Run(c, spec)
		if err != nil {
			return nil, err
		}
		if wc.CacheReports {
			h.workCache[key] = rep
		}
		return rep, nil
	}
}

// GenWorkloadQueries builds the workload's arrival schedule for this
// harness's relation sizes.
func (h *Harness) GenWorkloadQueries(wc WorkloadConfig) []*sched.Query {
	wc = wc.withDefaults(h)
	return sched.GenWorkload(sched.WorkloadSpec{
		N:               wc.Queries,
		Seed:            wc.ArrivalSeed,
		MeanGapNs:       cost.DurNs(wc.MeanGap),
		InnerBytes:      int64(h.cfg.InnerN) * tuple.Bytes,
		OuterBytes:      int64(h.cfg.OuterN) * tuple.Bytes,
		SmallInnerBytes: int64(h.cfg.InnerN/2) * tuple.Bytes,
		SmallOuterBytes: int64(h.cfg.OuterN/2) * tuple.Bytes,
		DeadlineNs:      cost.DurNs(wc.Deadline),
		BurstRate:       wc.BurstRate,
		BurstLen:        wc.BurstLen,
	})
}

// Workload runs one multi-query workload end to end and returns the
// engine's result.
func (h *Harness) Workload(wc WorkloadConfig) (*sched.Result, error) {
	wc = wc.withDefaults(h)
	eng, err := sched.New(sched.Config{
		Pool:     gamma.NewMemPool(wc.PoolBytes),
		Policy:   wc.Policy,
		MPL:      wc.MPL,
		Model:    h.cfg.Model,
		Exec:     h.workloadExec(wc),
		QueueCap: wc.QueueCap,
		Shed:     wc.Shed,
		ShedSeed: wc.ShedSeed,
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(h.GenWorkloadQueries(wc))
}

// MPLSweep — throughput and response time versus multiprogramming level
// under each admission policy. The paper measures one query at a time and
// reasons about multiuser behaviour through utilization (Section 4.5); this
// experiment runs the mixed workload concurrently and shows throughput
// climbing with MPL until the join-memory pool saturates and the policies
// split: fifo queues (ratio stays 1.0, waits grow), fair and shrink degrade
// memory ratios to keep admitting.
func (h *Harness) MPLSweep() (*Result, error) {
	res := &Result{
		ID:    "Extension: mpl-sweep",
		Title: "mixed workload vs multiprogramming level, per admission policy",
		Header: []string{"policy", "mpl", "throughput q/s", "p50 s", "p95 s", "p99 s",
			"mean wait s", "mean ratio", "pool peak"},
	}
	const queries = 12
	for _, pol := range sched.Policies {
		for _, mpl := range []int{1, 2, 4, 8} {
			r, err := h.Workload(WorkloadConfig{
				Queries:      queries,
				Policy:       pol,
				MPL:          mpl,
				CacheReports: true,
			})
			if err != nil {
				return nil, fmt.Errorf("mpl-sweep %s mpl=%d: %w", pol, mpl, err)
			}
			if h.cfg.ProfDir != "" {
				prefix := fmt.Sprintf("mpl-sweep_%s_mpl%d", pol, mpl)
				if err := writeWorkloadProfFiles(h.cfg.ProfDir, prefix, r, h.cfg.Model); err != nil {
					return nil, err
				}
			}
			var ratioSum float64
			for _, q := range r.Queries {
				ratioSum += q.RatioAtAdmission
			}
			res.Rows = append(res.Rows, []string{
				pol.String(),
				fmt.Sprint(mpl),
				fmt.Sprintf("%.3f", r.ThroughputQPS),
				fmt.Sprintf("%.2f", r.P50Ns.Seconds()),
				fmt.Sprintf("%.2f", r.P95Ns.Seconds()),
				fmt.Sprintf("%.2f", r.P99Ns.Seconds()),
				fmt.Sprintf("%.2f", r.MeanWaitNs.Seconds()),
				fmt.Sprintf("%.3f", ratioSum/float64(len(r.Queries))),
				fmt.Sprintf("%.0f%%", poolPeakPct(r)),
			})
		}
	}
	res.Notes = append(res.Notes,
		"same 12-query workload (seed-fixed arrivals, mixed algorithms/sizes/HPJA) under every policy;",
		"fifo holds every query at ratio 1.0 and pays in admission wait; fair and shrink trade the",
		"paper's memory ratio (Figures 5-9) for concurrency once the pool saturates")
	return res, nil
}

func poolPeakPct(r *sched.Result) float64 {
	if r.PoolTotal <= 0 {
		return 0
	}
	return 100 * float64(r.PoolPeak) / float64(r.PoolTotal)
}
