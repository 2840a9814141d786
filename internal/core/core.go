// Package core implements the paper's primary contribution: parallel
// versions of the Sort-Merge, Grace, Simple hash, and Hybrid hash join
// algorithms (Schneider & DeWitt, SIGMOD 1989, Section 3) on top of the
// Gamma machine substrate.
//
// All four algorithms hash-partition their inputs through split tables; the
// hash-based three build and probe memory-limited hash tables with the
// paper's histogram/cutoff overflow resolution, and sort-merge redistributes
// then sorts and merges per disk site. Bit-vector filtering, HPJA
// short-circuiting, local and remote join-site placement, and the optimizer
// bucket analyzer are all supported.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/pred"
	"gammajoin/internal/split"
	"gammajoin/internal/trace"
	"gammajoin/internal/tuple"
)

// Algorithm selects a parallel join algorithm.
type Algorithm int

const (
	// SortMerge redistributes both relations by hashing, sorts the
	// per-site temporary files, and merge-joins locally (Section 3.1).
	SortMerge Algorithm = iota
	// Simple stages the inner relation in in-memory hash tables at the
	// join sites and resolves memory overflow with the histogram/cutoff
	// mechanism, recursively (Section 3.2).
	Simple
	// Grace partitions both relations into disk buckets sized to fit the
	// aggregate join memory, then joins the buckets consecutively
	// (Section 3.3).
	Grace
	// Hybrid is Grace with the first bucket kept in memory and joined on
	// the fly while the remaining buckets are formed (Section 3.4).
	Hybrid
	// HybridDyn is the dynamic, robustness-oriented Hybrid variant: every
	// partition starts resident and is spilled (whole, largest-first) or
	// resurrected lazily as the observed build size and the memory budget
	// reveal themselves, instead of committing to a precomputed resident
	// fraction (arXiv 2112.02480; docs/SCHEDULER.md "Dynamic Hybrid").
	HybridDyn
)

func (a Algorithm) String() string {
	switch a {
	case SortMerge:
		return "sort-merge"
	case Simple:
		return "simple"
	case Grace:
		return "grace"
	case Hybrid:
		return "hybrid"
	case HybridDyn:
		return "hybrid-dyn"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Spec describes one join execution.
type Spec struct {
	Alg Algorithm

	// R is the inner (building) relation — the smaller one — and S the
	// outer (probing) relation, joined on R.RAttr == S.SAttr.
	R, S         *gamma.Relation
	RAttr, SAttr int

	// RPred and SPred are optional selection predicates pushed into the
	// initial relation scans (the joinAselB / joinCselAselB queries).
	// Selections execute only on the processors with disks, as in Gamma.
	RPred, SPred pred.Pred

	// MemBytes is the aggregate memory available at the joining
	// processors. If zero, MemRatio*R.Bytes() is used; a MemRatio of 1.0
	// holds the whole inner relation.
	MemBytes int64
	MemRatio float64

	// JoinSites lists the processors executing the join. Defaults to the
	// cluster's JoinSites (diskless processors when present, else the
	// disk sites). Sort-merge always joins on the disk sites.
	JoinSites []int

	// BitFilter enables Babb bit-vector filtering during joining phases.
	BitFilter bool
	// FilterForming additionally builds filters during the bucket-forming
	// phases of Grace and Hybrid and drops non-joining outer tuples
	// before they are written to disk — the extension the paper's
	// Sections 4.2/4.4 predict "would significantly increase the
	// performance of these algorithms". Requires BitFilter.
	FilterForming bool
	// BucketTuning enables the Grace bucket tuning of [KITS83]: three
	// times more buckets than optimal are formed and then combined into
	// memory-sized join groups by measured size, absorbing skew without
	// overflow.
	BucketTuning bool

	// InnerSizeHint tells the optimizer the expected inner size in bytes
	// after RPred's selection (Gamma's optimizer estimates selectivities
	// from catalog statistics); 0 means the full relation size.
	InnerSizeHint int64

	// EstErrorFactor deliberately corrupts the optimizer's inner-size
	// estimate by the given multiplier before the bucket/partition choice
	// (2 = the optimizer believes the inner is twice its true size, 0.25 =
	// a quarter). It models cardinality mis-estimation: static Hybrid
	// commits its bucket count to the wrong estimate, dynamic Hybrid only
	// uses it to seed the partition count. 0 or 1 means exact estimates.
	EstErrorFactor float64

	// ForceBuckets overrides the optimizer's bucket count for Grace and
	// Hybrid (before the bucket analyzer runs), up to one per inner tuple.
	ForceBuckets int
	// AllowOverflow makes Hybrid take the paper's "optimistic" choice at
	// non-integral memory ratios: run with floor(1/ratio) buckets and let
	// the Simple-hash overflow mechanism absorb the excess (Figure 7).
	AllowOverflow bool
	// SkipAnalyzer disables the Appendix-A bucket analyzer (for the
	// ablation benchmark of the mod-cycle pathology).
	SkipAnalyzer bool

	// StoreResult materializes the result relation round-robin across the
	// disk sites (the benchmark queries store their >4 MB result).
	StoreResult bool
	// CollectResults additionally gathers the joined tuples into the
	// report (tests and small examples only).
	CollectResults bool

	// QueryID tags this execution with a workload query id (internal/sched).
	// It flows into the trace (one process track per query) and prefixes
	// temp-file names so concurrent queries of the same shape never collide
	// in the simulated file system. 0 means a standalone query.
	QueryID int
}

// Report describes one executed join.
type Report struct {
	Alg      Algorithm
	Response time.Duration
	Phases   []gamma.PhaseStat

	ResultCount int64
	// Results holds the joined tuples, only when Spec.CollectResults. They
	// are grouped by the site that produced them, in ascending site order,
	// and keep that site's processing order within a site.
	Results []tuple.Joined

	// ResultSum is the order-independent checksum of the result set: the
	// wrapping uint64 sum of tuple.PairChecksum over every emitted
	// result. Two executions of the same join — serial or interleaved,
	// different algorithms, different memory grants — must agree on it,
	// which is what the workload engine's equivalence tests assert.
	ResultSum uint64

	Buckets        int   // Grace/Hybrid bucket count actually used
	OverflowLevels int   // recursion depth of the overflow resolution
	OverflowClears int64 // hash-table clearing passes
	ROverflowed    int64 // inner tuples routed through overflow files
	SOverflowed    int64 // outer tuples routed through overflow files

	FilterBitsPerSite int
	FilterDropped     int64 // outer tuples eliminated by bit filters

	// Dynamic-Hybrid adaptation accounting. SpillCount is how many whole
	// partitions were demoted to disk mid-build; Resurrections how many
	// spilled partitions were brought back before probing; RevokedPages
	// the budget capacity (in pages) taken away by mid-build revocations
	// (mem.revoke events), cumulative across swings.
	SpillCount    int64
	Resurrections int64
	RevokedPages  cost.Pages

	Net  netsim.Counters // network activity for the whole join
	Disk disk.Counters   // disk activity for the whole join

	// Forming counters cover the bucket-forming / partitioning phases
	// only; FormingLocalFrac is the paper's Table 2 metric.
	Forming netsim.Counters

	SortPassesR, SortPassesS int // sort-merge merge passes (max over sites)

	AvgChain float64 // mean hash-chain length across join sites
	MaxChain int

	// CPU utilization over the whole join, per processor class. The paper
	// reports local joins drive the disk-site CPUs to 100% while the
	// remote configuration leaves them at ~60% — the basis of its
	// multiuser throughput argument.
	UtilDisk     float64
	UtilDiskless float64
	// BottleneckBusy is the busiest site's total resource time; its
	// inverse bounds multiuser throughput (queries/second) on this
	// configuration.
	BottleneckBusy time.Duration

	// Recovery accounting (fault injection, docs/FAULTS.md). Restarts is
	// how many attempts were abandoned to injected site crashes before
	// this successful one; DeadSites lists the crashed sites in failure
	// order; WastedWork is the simulated response time that had to be
	// re-run: whole abandoned attempts plus, under mirrored failover, the
	// crashed unit's completed phases. Response covers only the successful
	// attempt (including its detection and redo phases).
	Restarts   int
	DeadSites  []int
	WastedWork time.Duration

	// Graceful-degradation accounting (the recovery ladder's middle
	// rungs). FailedOver counts crashes absorbed by chained-declustered
	// mirrors without a restart; PhasesRedone counts completed phases
	// re-run because their unit's crash was absorbed; MirrorReads is the
	// number of failover page reads served by backup disks during the
	// successful attempt; DetectionDelay is the total simulated time the
	// failure detector spent declaring sites dead (charged to Response on
	// the successful attempt, to WastedWork on abandoned ones).
	FailedOver     int
	PhasesRedone   int
	MirrorReads    cost.Pages
	DetectionDelay time.Duration

	// RetryBudgetUsed is how many priced retry units (disk retries, crash
	// restarts; see fault.Spec.RetryBudget) this query consumed. Reported
	// even when no budget cap is configured.
	RetryBudgetUsed int64

	// Trace is the execution's simulated-time timeline: one span per
	// operator process per phase (abandoned attempts included), fault
	// events, and the per-phase metrics registry. See docs/OBSERVABILITY.md
	// and the exporters in internal/trace.
	Trace *trace.Recorder
}

// FormingLocalFrac is the fraction of forming-phase tuples written locally.
func (r *Report) FormingLocalFrac() float64 { return r.Forming.LocalFraction() }

// ErrSiteFailed is the sentinel wrapped by every SiteFailure, so callers
// can errors.Is(err, ErrSiteFailed) without knowing the concrete type.
var ErrSiteFailed = errors.New("core: site failed")

// SiteFailure reports an (injected) crash of one join site at a phase
// boundary. Run catches it internally and restarts the query without the
// site; it escapes Run only when no recovery is possible (no survivors,
// restart budget exhausted) or from the non-join operators, which do not
// restart.
type SiteFailure struct {
	Site  int    // site that died
	Phase string // phase it was about to run
}

func (e *SiteFailure) Error() string {
	return fmt.Sprintf("core: site %d failed entering phase %q", e.Site, e.Phase)
}

// Unwrap ties SiteFailure to the ErrSiteFailed sentinel.
func (e *SiteFailure) Unwrap() error { return ErrSiteFailed }

// Run executes the join described by spec on cluster c and returns its
// report. The execution is real — every tuple is hashed, routed, and joined
// — while response time comes from the cluster's cost model.
//
// When the cluster's fault registry injects a site crash, the recovery
// ladder (docs/FAULTS.md) escalates instead of restarting outright: with
// chained mirrors enabled (Cluster.EnableMirrors), the dead site's roles
// move to its ring neighbor and only the crashed unit re-runs; otherwise —
// or when a second failure breaks the mirror chain — the attempt is
// abandoned and the query restarts from scratch on the surviving join
// sites (joins never mutate the base relations, so a fresh attempt is
// always safe; a crashed site's disk is assumed to stay readable — see
// docs/FAULTS.md). The report of the successful attempt carries the
// restart/failover counts, the dead sites, and the simulated time the
// recovery wasted.
func Run(c *gamma.Cluster, spec Spec) (*Report, error) {
	var (
		restarts     int
		dead         []int
		wasted       cost.SimNs
		failedOver   int
		phasesRedone int
		detection    cost.SimNs
	)
	// Queries never overlap on one cluster: the shared counters, fault
	// coordinates, and host map are scoped per query by snapshot-diffing
	// and ReviveAll. The lock makes Run safe to call from the workload
	// engine's admission goroutines.
	c.AcquireRun()
	defer c.ReleaseRun()
	// The retry budget is per query: reset it under the run lock so one
	// registry shared by a whole workload prices each query separately.
	// The budget spans restart attempts within this Run.
	c.Faults.BeginQueryBudget()
	// One recorder spans every attempt: its virtual clock keeps running
	// through restarts, so abandoned attempts stay visible on the timeline
	// as the wasted work they were.
	rec := c.NewTraceRecorder()
	rec.SetQuery(spec.QueryID)
	diskStart := c.DiskCounters()
	for {
		rec.NewAttempt()
		rc, err := newRunCtx(c, &spec, rec)
		if err != nil {
			return nil, err
		}
		switch spec.Alg {
		case SortMerge:
			err = rc.runSortMerge()
		case Simple:
			err = rc.runSimple()
		case Grace:
			err = rc.runGrace()
		case Hybrid:
			err = rc.runHybrid()
		case HybridDyn:
			err = rc.runHybridDyn()
		default:
			return nil, fmt.Errorf("core: unknown algorithm %v", spec.Alg)
		}
		// Every attempt's temp files are dead at this barrier — the attempt
		// either finished with them consumed, is about to restart from
		// scratch, or is unwinding on an error. Dropping them here keeps the
		// cluster's live-file ledger empty on every exit path.
		rc.dropTempFiles()
		// Accumulate the ladder's middle-rung stats whether or not the
		// attempt survived — failovers absorbed before a later escalation
		// still happened.
		failedOver += rc.failedOver
		phasesRedone += rc.phasesRedone
		detection += rc.detectionDelay
		dead = append(dead, rc.deadSites...)
		var sf *SiteFailure
		if errors.As(err, &sf) {
			// The abandoned attempt's whole response — detection and redo
			// phases included, so rc.wastedRedo is already in there — is
			// wasted work.
			wasted += rc.q.Response()
			restarts++
			dead = append(dead, sf.Site)
			rec.Instant(sf.Site, "restart", fmt.Sprintf("attempt %d abandoned entering %q", restarts, sf.Phase))
			mm := rec.Metrics()
			mm.Counter("recovery.restarts").Add(1)
			// The restart rung falls back to the storage-survives model:
			// revive every marked-dead site's disk (its data is re-read
			// from base fragments and mirrors as before) and re-plan on
			// the survivors only.
			c.ReviveAll()
			if restarts > len(c.Sites) {
				return nil, fmt.Errorf("core: giving up after %d restarts: %w", restarts, err)
			}
			// A restart is the priciest recovery: charge it against the
			// query's retry budget and escalate to shed if that overdraws.
			c.Faults.ConsumeRestart()
			if c.Faults.BudgetExhausted() {
				rec.Instant(sf.Site, "cancel", fmt.Sprintf("retry budget exhausted after %d restarts", restarts))
				return nil, fmt.Errorf("core: giving up after %d restarts: %w", restarts, fault.ErrRetryBudgetExhausted)
			}
			alive := withoutSite(rc.joinSites, sf.Site)
			if len(alive) == 0 {
				return nil, fmt.Errorf("core: no join sites survive: %w", err)
			}
			spec.JoinSites = alive
			continue
		}
		if err != nil {
			return nil, err
		}
		rep := rc.report()
		rep.RetryBudgetUsed = c.Faults.BudgetUsed()
		rep.Restarts = restarts
		rep.DeadSites = dead
		rep.WastedWork = (wasted + rc.wastedRedo).Dur()
		rep.FailedOver = failedOver
		rep.PhasesRedone = phasesRedone
		rep.DetectionDelay = detection.Dur()
		rep.MirrorReads = c.DiskCounters().Sub(diskStart).MirrorReads
		// Failures are scoped to the query: hand the cluster back healthy
		// so a shared harness cluster is not poisoned for the next run.
		c.ReviveAll()
		return rep, nil
	}
}

// memBytes resolves the aggregate join memory for the spec.
func (s *Spec) memBytes() (int64, error) {
	if s.MemBytes > 0 {
		return s.MemBytes, nil
	}
	if s.MemRatio <= 0 {
		return 0, fmt.Errorf("core: spec needs MemBytes or MemRatio")
	}
	return RatioBytes(s.MemRatio, s.R.Bytes())
}

// RatioBytes converts a memory ratio into an aggregate join-memory budget:
// ratio times innerBytes, so a ratio of 1.0 holds the whole inner relation.
// The negated comparisons also catch a NaN ratio, and a budget of 2^63 bytes
// or more would wrap in the int64 conversion.
func RatioBytes(ratio float64, innerBytes int64) (int64, error) {
	mem := ratio * float64(innerBytes)
	if !(ratio > 0) || !(mem < math.MaxInt64) {
		return 0, fmt.Errorf("core: memory ratio %g is not a positive ratio giving a budget below 2^63 bytes", ratio)
	}
	return int64(mem), nil
}

// filterBits sizes per-site bit filters by Gamma's shared-2KB-packet rule.
func filterBits(m *cost.Model, nJoinSites int) int {
	return bitfilter.PerSiteBits(m.P.PacketBytes, m.P.FilterOverheadBitsPerSite, nJoinSites)
}

// optimizerBuckets computes the bucket count for Grace and Hybrid: Buckets
// for the optimizer's inner estimate, or the forced count, corrected by the
// Appendix-A bucket analyzer.
func (rc *runCtx) optimizerBuckets(hybrid bool) int {
	n := rc.spec.ForceBuckets
	if n <= 0 {
		innerBytes := rc.spec.R.Bytes()
		if rc.spec.InnerSizeHint > 0 {
			innerBytes = rc.spec.InnerSizeHint
		}
		n = Buckets(rc.estimatedInner(innerBytes), rc.memTotal, rc.spec.R.N, hybrid && rc.spec.AllowOverflow)
	}
	if !rc.spec.SkipAnalyzer {
		n = split.AnalyzeBuckets(hybrid, len(rc.diskSites), len(rc.joinSites), n)
	}
	return n
}

// Buckets is the Grace or Hybrid bucket count before the bucket analyzer
// (split.AnalyzeBuckets) corrects it for the site placement: the smallest
// count whose buckets of an inner relation estimated at innerBytes each fit
// in memBytes of aggregate join memory, at most one per inner tuple and at
// least one. An optimistic Hybrid plan (Spec.AllowOverflow) takes one bucket
// fewer and lets overflow absorb the rest. The optimizer plans with this
// function, so a plan names the bucket count the join runs.
func Buckets(innerBytes float64, memBytes, innerTuples int64, optimistic bool) int {
	// Capped in float space, before the int conversion could overflow.
	need := min(innerBytes/float64(memBytes), float64(maxBuckets(innerTuples)))
	// The epsilon keeps ratios like 1/3 — whose memory budget is truncated
	// to integer bytes, leaving need a hair above the intended integer — at
	// their intended bucket count; the sub-0.1% shortfall is covered by the
	// hash tables' one-tuple capacity slack.
	n := int(math.Ceil(need - 1e-3))
	if optimistic {
		n = int(need)
	}
	return max(n, 1)
}

// maxBuckets bounds a Grace or Hybrid bucket count at one per inner tuple
// (and at least one): past that, extra buckets can only be empty, yet each
// still costs a file and a page buffer at every disk site.
func maxBuckets(innerTuples int64) int64 { return max(innerTuples, 1) }

// estimatedInner is the optimizer's belief about the inner size in bytes:
// the catalog value corrupted by the spec's mis-estimation factor. Every
// plan-time sizing decision (bucket counts, partition counts) must go
// through this, so static and dynamic Hybrid mis-plan from the same wrong
// number and only their runtime behavior differs.
func (rc *runCtx) estimatedInner(innerBytes int64) float64 {
	est := float64(innerBytes)
	if f := rc.spec.EstErrorFactor; f > 0 && f != 1 {
		est *= f
	}
	return est
}
