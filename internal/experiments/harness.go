// Package experiments reproduces every table and figure of Schneider &
// DeWitt (1989). Each experiment runs the joinABprime benchmark query
// (100,000-tuple outer relation, 10,000-tuple inner) through the parallel
// join algorithms under the paper's configurations and reports simulated
// response times.
//
// A Harness caches generated relations, loaded clusters, and join reports,
// so figures that share data points (e.g. Figures 5, 10-13, and 15) reuse
// the same runs.
package experiments

import (
	"fmt"
	"math"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// Config sizes the benchmark database. The defaults match the paper; tests
// and quick benchmarks scale OuterN/InnerN down.
type Config struct {
	OuterN int // tuples in the outer (probing) relation A
	InnerN int // tuples in the inner (building) relation Bprime
	Disks  int // processors with disks (paper: 8)
	Remote int // diskless join processors in the remote configuration (paper: 8)
	Seed   uint64
	Model  *cost.Model

	// Faults, when non-nil, enables deterministic fault injection on every
	// cluster the harness builds (see docs/FAULTS.md). The schedule is part
	// of the configuration: two harnesses with equal Config produce
	// bit-identical reports, faults and all.
	Faults *fault.Spec

	// Mirror enables chained-declustered backup fragments on every cluster
	// the harness builds: each disk site's fragments are mirrored on its
	// ring neighbor, so a single crashed site fails over instead of
	// restarting the query (see docs/FAULTS.md, "The recovery ladder").
	Mirror bool

	// TraceDir, when non-empty, makes the harness export every uncached
	// run's timeline into this directory: <RunKey slug>.trace.json (Chrome
	// trace_event, Perfetto-loadable), <slug>.metrics.tsv (per-phase metric
	// samples), and <slug>.spans.tsv (the flat span table cmd/gammaprof
	// re-profiles offline). See docs/OBSERVABILITY.md.
	TraceDir string

	// ProfDir, when non-empty, makes the harness profile every uncached run
	// and write <slug>.prof.txt (blame, critical path, stragglers) and
	// <slug>.prof.tsv (the machine-readable profile gammaprof diff and
	// benchcheck consume) into this directory. See docs/OBSERVABILITY.md,
	// "Where did the time go".
	ProfDir string

	// EstError is the default optimizer mis-estimation factor applied to
	// every run whose RunKey does not set its own (the -est-error flag).
	// 0 or 1 leaves estimates exact.
	EstError float64
}

// DefaultConfig returns the paper's configuration: 100k x 10k tuples on 8
// disk sites, 8 extra diskless sites for remote joins.
func DefaultConfig() Config {
	return Config{
		OuterN: 100000,
		InnerN: 10000,
		Disks:  8,
		Remote: 8,
		Seed:   1989,
		Model:  cost.Default(),
	}
}

// MemRatios are the memory availabilities plotted in Figures 5-16: the
// points at which Grace and Hybrid use an integral number of buckets
// (1/1 .. 1/8).
var MemRatios = []float64{1.0, 1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7, 1.0 / 8}

// RunKey identifies one cached join execution.
type RunKey struct {
	Remote        bool
	HPJA          bool
	Alg           core.Algorithm
	Ratio         float64
	Filter        bool
	ForceBuckets  int
	AllowOverflow bool
	Skew          string // "", "UU", "NU", "UN", "NN" (Table 3 workloads)

	// Extension knobs (not part of the paper's runs).
	FilterForming bool // bit filters during bucket forming
	BucketTuning  bool // KITS83 bucket tuning for Grace
	Mixed         bool // join on a mix of disk and diskless processors
	AselB         bool // joinAselB: full-size inner with a 10% selection

	// EstError corrupts the optimizer's inner-size estimate by this
	// factor (core.Spec.EstErrorFactor); 0 or 1 is an exact estimate.
	// The degradation-curve experiment sweeps it to compare static and
	// dynamic Hybrid under mis-estimation.
	EstError float64
}

type relKey struct {
	remote   bool
	partAttr int
	skew     string
	small    bool // half-sized workload relations (internal/sched mixes)
}

type relPair struct {
	r, s         *gamma.Relation
	rAttr, sAttr int
}

// RecoveryStats aggregates the recovery ladder's work over every uncached
// run a harness executed: how often each rung fired and what it cost. Zero
// everywhere on a fault-free harness.
type RecoveryStats struct {
	Runs           int           // uncached joins executed
	Restarts       int           // full query restarts (last rung)
	FailedOver     int           // crashes absorbed by mirrored-fragment failover
	PhasesRedone   int           // phases re-executed after a failover
	WastedWork     time.Duration // simulated time discarded by restarts and redo
	DetectionDelay time.Duration // heartbeat time spent declaring sites dead
	MirrorReads    cost.Pages    // pages read from backup fragments
}

// Harness caches workloads and run reports for the experiment suite.
type Harness struct {
	cfg Config

	clusters map[bool]*gamma.Cluster
	rels     map[relKey]relPair
	cache    map[RunKey]*core.Report
	recovery RecoveryStats

	// workCache holds per-shape-and-grant workload reports (see
	// workloadExec); the mpl-sweep reuses identical executions across
	// policies and MPLs.
	workCache map[workKey]*core.Report

	// Raw generated tuples, shared by all loads.
	uniformOuter []tuple.Tuple
	uniformInner []tuple.Tuple
	skewOuter    []tuple.Tuple
	skewInner    []tuple.Tuple
	smallOuter   []tuple.Tuple
	smallInner   []tuple.Tuple
}

// NewHarness creates a harness for the given configuration.
func NewHarness(cfg Config) *Harness {
	if cfg.Model == nil {
		cfg.Model = cost.Default()
	}
	return &Harness{
		cfg:       cfg,
		clusters:  make(map[bool]*gamma.Cluster),
		rels:      make(map[relKey]relPair),
		cache:     make(map[RunKey]*core.Report),
		workCache: make(map[workKey]*core.Report),
	}
}

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// Recovery returns the recovery work accumulated over every uncached run.
func (h *Harness) Recovery() RecoveryStats { return h.recovery }

func (h *Harness) cluster(remote bool) (*gamma.Cluster, error) {
	if c, ok := h.clusters[remote]; ok {
		return c, nil
	}
	var c *gamma.Cluster
	if remote {
		c = gamma.NewRemote(h.cfg.Disks, h.cfg.Remote, h.cfg.Model)
	} else {
		c = gamma.NewLocal(h.cfg.Disks, h.cfg.Model)
	}
	if h.cfg.Faults != nil {
		c.EnableFaults(*h.cfg.Faults)
	}
	if h.cfg.Mirror {
		if err := c.EnableMirrors(); err != nil {
			// A one-disk cluster cannot mirror; report the misconfiguration
			// rather than silently running unprotected.
			return nil, fmt.Errorf("experiments: Config.Mirror: %w", err)
		}
	}
	h.clusters[remote] = c
	return c, nil
}

func (h *Harness) uniformTuples() ([]tuple.Tuple, []tuple.Tuple) {
	if h.uniformOuter == nil {
		h.uniformOuter = wisconsin.Generate(h.cfg.OuterN, h.cfg.Seed)
		h.uniformInner = wisconsin.Bprime(h.uniformOuter, int32(h.cfg.InnerN))
	}
	return h.uniformOuter, h.uniformInner
}

func (h *Harness) skewTuples() ([]tuple.Tuple, []tuple.Tuple) {
	if h.skewOuter == nil {
		h.skewOuter = wisconsin.GenerateSkewed(h.cfg.OuterN, h.cfg.Seed+7)
		h.skewInner = wisconsin.RandomSubset(h.skewOuter, h.cfg.InnerN, h.cfg.Seed+11)
	}
	return h.skewOuter, h.skewInner
}

// skewAttrs maps a Table 3 join type ("UU", "NU", "UN", "NN") to the inner
// and outer join attributes (X = inner distribution, Y = outer).
func skewAttrs(skew string) (rAttr, sAttr int, err error) {
	if len(skew) != 2 {
		return 0, 0, fmt.Errorf("experiments: bad skew type %q", skew)
	}
	attr := func(c byte) (int, error) {
		switch c {
		case 'U':
			return tuple.Unique1, nil
		case 'N':
			return tuple.Normal, nil
		default:
			return 0, fmt.Errorf("experiments: bad skew letter %q", c)
		}
	}
	if rAttr, err = attr(skew[0]); err != nil {
		return
	}
	sAttr, err = attr(skew[1])
	return
}

// relations loads (or returns cached) relations for a run key.
func (h *Harness) relations(k RunKey) (relPair, error) {
	if k.Skew != "" {
		rAttr, sAttr, err := skewAttrs(k.Skew)
		if err != nil {
			return relPair{}, err
		}
		rk := relKey{remote: k.Remote, skew: k.Skew}
		if p, ok := h.rels[rk]; ok {
			return p, nil
		}
		outer, inner := h.skewTuples()
		if k.Skew == "UU" {
			// The UU baseline is the standard joinABprime inner relation
			// (dense unique1 values below InnerN), matching the uniform
			// workload of Figures 5-16; the randomly selected subset is
			// only needed when an attribute is non-uniform.
			inner = wisconsin.Bprime(outer, int32(h.cfg.InnerN))
		}
		c, err := h.cluster(k.Remote)
		if err != nil {
			return relPair{}, err
		}
		// Section 4.4: relations are range-partitioned on their join
		// attributes so every processor scans the same amount of data.
		s, err := gamma.Load(c, "Askew."+k.Skew, outer, gamma.RangeUniform, sAttr)
		if err != nil {
			return relPair{}, err
		}
		r, err := gamma.Load(c, "Bskew."+k.Skew, inner, gamma.RangeUniform, rAttr)
		if err != nil {
			return relPair{}, err
		}
		p := relPair{r: r, s: s, rAttr: rAttr, sAttr: sAttr}
		h.rels[rk] = p
		return p, nil
	}

	if k.AselB {
		return h.aselbRelations(k)
	}
	partAttr := tuple.Unique1
	if !k.HPJA {
		partAttr = tuple.Unique2
	}
	rk := relKey{remote: k.Remote, partAttr: partAttr}
	if p, ok := h.rels[rk]; ok {
		return p, nil
	}
	outer, inner := h.uniformTuples()
	c, err := h.cluster(k.Remote)
	if err != nil {
		return relPair{}, err
	}
	s, err := gamma.Load(c, fmt.Sprintf("A.p%d", partAttr), outer, gamma.HashPart, partAttr)
	if err != nil {
		return relPair{}, err
	}
	r, err := gamma.Load(c, fmt.Sprintf("Bprime.p%d", partAttr), inner, gamma.HashPart, partAttr)
	if err != nil {
		return relPair{}, err
	}
	p := relPair{r: r, s: s, rAttr: tuple.Unique1, sAttr: tuple.Unique1}
	h.rels[rk] = p
	return p, nil
}

// aselbRelations builds the joinAselB workload: the inner relation has the
// same cardinality as the outer but carries a pushed selection retaining
// InnerN tuples ("the trends were the same", Section 4).
func (h *Harness) aselbRelations(k RunKey) (relPair, error) {
	rk := relKey{remote: k.Remote, partAttr: -2}
	if p, ok := h.rels[rk]; ok {
		return p, nil
	}
	outer, _ := h.uniformTuples()
	bTuples := wisconsin.Generate(h.cfg.OuterN, h.cfg.Seed+3)
	c, err := h.cluster(k.Remote)
	if err != nil {
		return relPair{}, err
	}
	s, err := gamma.Load(c, "A.aselb", outer, gamma.HashPart, tuple.Unique1)
	if err != nil {
		return relPair{}, err
	}
	r, err := gamma.Load(c, "B.aselb", bTuples, gamma.HashPart, tuple.Unique1)
	if err != nil {
		return relPair{}, err
	}
	p := relPair{r: r, s: s, rAttr: tuple.Unique1, sAttr: tuple.Unique1}
	h.rels[rk] = p
	return p, nil
}

// Run executes (or fetches from cache) the join identified by k.
func (h *Harness) Run(k RunKey) (*core.Report, error) {
	if rep, ok := h.cache[k]; ok {
		return rep, nil
	}
	rels, err := h.relations(k)
	if err != nil {
		return nil, err
	}
	spec := core.Spec{
		Alg:            k.Alg,
		R:              rels.r,
		S:              rels.s,
		RAttr:          rels.rAttr,
		SAttr:          rels.sAttr,
		MemRatio:       k.Ratio,
		BitFilter:      k.Filter,
		FilterForming:  k.FilterForming,
		BucketTuning:   k.BucketTuning,
		ForceBuckets:   k.ForceBuckets,
		AllowOverflow:  k.AllowOverflow,
		EstErrorFactor: k.EstError,
		StoreResult:    true,
	}
	if spec.EstErrorFactor == 0 {
		spec.EstErrorFactor = h.cfg.EstError
	}
	c, err := h.cluster(k.Remote)
	if err != nil {
		return nil, err
	}
	if k.Mixed {
		// Half the join processors have disks, half do not.
		disks, diskless := c.DiskSites(), c.DisklessSites()
		var sites []int
		sites = append(sites, disks[:len(disks)/2]...)
		sites = append(sites, diskless[:len(diskless)/2]...)
		spec.JoinSites = sites
	}
	if k.AselB {
		// The selection retains InnerN of the OuterN inner tuples; the
		// memory ratio is relative to the effective (selected) inner, and
		// the optimizer is told the post-selection size (Gamma estimates
		// it from catalog statistics).
		spec.RPred = pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: int32(h.cfg.InnerN)}
		spec.MemRatio = 0
		spec.MemBytes = int64(k.Ratio * float64(h.cfg.InnerN) * tuple.Bytes)
		spec.InnerSizeHint = int64(h.cfg.InnerN) * tuple.Bytes
	}
	rep, err := core.Run(c, spec)
	if err != nil {
		return nil, err
	}
	h.recovery.Runs++
	h.recovery.Restarts += rep.Restarts
	h.recovery.FailedOver += rep.FailedOver
	h.recovery.PhasesRedone += rep.PhasesRedone
	h.recovery.WastedWork += rep.WastedWork
	h.recovery.DetectionDelay += rep.DetectionDelay
	h.recovery.MirrorReads += rep.MirrorReads
	if h.cfg.TraceDir != "" {
		if err := writeTraceFiles(h.cfg.TraceDir, k.Slug(), rep); err != nil {
			return nil, err
		}
	}
	if h.cfg.ProfDir != "" {
		if err := writeProfFiles(h.cfg.ProfDir, k.Slug(), rep, h.cfg.Model); err != nil {
			return nil, err
		}
	}
	h.cache[k] = rep
	return rep, nil
}

// Seconds runs k and returns the simulated response time in seconds.
func (h *Harness) Seconds(k RunKey) (float64, error) {
	rep, err := h.Run(k)
	if err != nil {
		return math.NaN(), err
	}
	return rep.Response.Seconds(), nil
}
