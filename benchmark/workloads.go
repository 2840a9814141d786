package main

import (
	"fmt"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/experiments"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/sched"
	"gammajoin/internal/tuple"
	"gammajoin/internal/walltime"
	"gammajoin/internal/wisconsin"
	"gammajoin/internal/xrand"
)

// workloadNames lists the workloads in the order the all-workloads run and
// -compare report them. BENCHMARK.json says why each exists.
var workloadNames = []string{"paper-local", "remote-filtered", "multiuser", "recovery-traced"}

// disks is the paper's machine: 8 processors with disks, plus 8 diskless
// ones in the remote configuration.
const disks = 8

// workload is one named set of inputs and the pass run over them.
type workload interface {
	// generate makes the relations from cfg.seed and returns how many
	// tuples it generated.
	generate(cfg config) int64
	// load builds the cluster and declusters the relations onto it,
	// returning how many tuples it stored.
	load(r *runner) (int64, error)
	// prepare readies pass p outside the timed section.
	prepare(r *runner, p int) error
	// run executes pass p's joins through r.join.
	run(r *runner, p int) error
	// replayInput is what the layer replays run on.
	replayInput() replayInput
}

func newWorkload(name string) (workload, error) {
	hashJoins := []core.Algorithm{core.SortMerge, core.Simple, core.Grace, core.Hybrid}
	switch name {
	case "paper-local":
		// Figure 5: HPJA joins on the local machine, every redistribution
		// short-circuited.
		return &grid{partAttr: tuple.Unique1, algs: hashJoins}, nil
	case "remote-filtered":
		// Figures 9 and 14: non-HPJA joins on the diskless processors with
		// bit filters, so every tuple crosses the simulated wire.
		return &grid{remote: true, partAttr: tuple.Unique2, filter: true, algs: hashJoins}, nil
	case "multiuser":
		return &multiuser{}, nil
	case "recovery-traced":
		// The chaos fault rates plus budget swings, on mirrored disks, with
		// every report exported.
		return &grid{
			partAttr: tuple.Unique2,
			algs:     []core.Algorithm{core.Grace, core.Hybrid, core.HybridDyn},
			faults: &fault.Spec{
				DiskReadRate:    0.02,
				NetDropRate:     0.02,
				NetDupRate:      0.02,
				MemPressureRate: 0.3,
				CrashRate:       0.05,
				BudgetSwingRate: 0.5,
			},
			exports: true,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// derive gives pass p its own seed for one kind of input, a pure function
// of the run's seed.
func derive(seed, salt uint64, p int) uint64 { return xrand.Mix64(seed^salt) + uint64(p) }

// relPair is a generated Wisconsin relation and its Bprime subset.
type relPair struct {
	outer, inner []tuple.Tuple
	want         oracle
}

func genPair(outerN, innerN int, seed uint64) relPair {
	outer := wisconsin.Generate(outerN, seed)
	inner := wisconsin.Bprime(outer, int32(innerN))
	return relPair{outer: outer, inner: inner, want: oracleFor(inner)}
}

// loadedPair is a relation pair declustered onto a cluster.
type loadedPair struct {
	r, s *gamma.Relation
	want oracle
}

func loadPair(c *gamma.Cluster, name string, p relPair, partAttr int) (loadedPair, error) {
	s, err := gamma.Load(c, "A."+name, p.outer, gamma.HashPart, partAttr)
	if err != nil {
		return loadedPair{}, err
	}
	r, err := gamma.Load(c, "Bprime."+name, p.inner, gamma.HashPart, partAttr)
	if err != nil {
		return loadedPair{}, err
	}
	return loadedPair{r: r, s: s, want: p.want}, nil
}

func (p relPair) tuples() int64 { return int64(len(p.outer) + len(p.inner)) }

// grid runs each of its algorithms at each memory ratio of Figures 5-16,
// one join at a time, against one relation pair.
type grid struct {
	remote   bool
	partAttr int
	filter   bool
	algs     []core.Algorithm
	// faults, when set, makes every pass run on a freshly built, faulted
	// and mirrored cluster (see README.md, "Fresh faulted cluster").
	faults  *fault.Spec
	exports bool

	pair     relPair
	rel      loadedPair
	c        *gamma.Cluster
	schedule int // fault schedule of the current pass
}

// faultSchedules is how many fault schedules recovery-traced cycles through:
// enough that a run averages over several crash placements, few enough that
// every schedule repeats and its responses can be checked against the
// earlier pass that ran it.
const faultSchedules = 8

// faultSeed seeds the fault schedules. Like the fault rates, the schedules
// are part of the workload, not of its seeded input: where each pass's one
// crash lands changes how much work the pass redoes, and with schedules
// drawn from --seed that made allocations per join differ by 6% from seed
// to seed (README.md, "Baseline and spread").
const faultSeed = 1989

func (g *grid) generate(cfg config) int64 {
	g.pair = genPair(cfg.outerN, cfg.innerN, cfg.seed)
	return int64(len(g.pair.outer))
}

func (g *grid) load(r *runner) (int64, error) {
	var c *gamma.Cluster
	if g.remote {
		c = gamma.NewRemote(disks, disks, r.model)
	} else {
		c = gamma.NewLocal(disks, r.model)
	}
	if g.faults != nil {
		spec := *g.faults
		spec.Seed = derive(faultSeed, 0xFA17, g.schedule)
		c.EnableFaults(spec)
		if err := c.EnableMirrors(); err != nil {
			return 0, err
		}
	}
	rel, err := loadPair(c, fmt.Sprintf("p%d", g.partAttr), g.pair, g.partAttr)
	if err != nil {
		return 0, err
	}
	g.c, g.rel = c, rel
	return g.pair.tuples(), nil
}

func (g *grid) prepare(r *runner, p int) error {
	if g.faults == nil {
		return nil
	}
	// The fault registry keeps state across queries (its crash budget is
	// spent by the first crash), so reusing a cluster would make every pass
	// after the first a different workload.
	g.schedule = p % faultSchedules
	_, err := g.load(r)
	return err
}

func (g *grid) run(r *runner, p int) error {
	for _, alg := range g.algs {
		for _, ratio := range experiments.MemRatios {
			spec := core.Spec{
				Alg:         alg,
				R:           g.rel.r,
				S:           g.rel.s,
				RAttr:       tuple.Unique1,
				SAttr:       tuple.Unique1,
				MemRatio:    ratio,
				BitFilter:   g.filter,
				StoreResult: true,
			}
			key := fmt.Sprintf("%v@%.4f", alg, ratio)
			if g.faults != nil {
				key = fmt.Sprintf("schedule%d/%s", g.schedule, key)
			}
			r.join(g.c, spec, g.rel.want, key, g.exports)
		}
	}
	return nil
}

func (g *grid) replayInput() replayInput {
	return replayInput{
		outer: g.pair.outer, inner: g.pair.inner, partAttr: g.partAttr,
		diskSites: g.c.DiskSites(), joinSites: g.c.JoinSites(),
	}
}

// Multiuser workload shape: queries per pass, the open-loop arrival gap in
// simulated time, and the admission policy's multiprogramming level.
const (
	multiuserQueries = 24
	multiuserGap     = 2 * time.Second
	multiuserMPL     = 8
)

// multiuser admits a mixed query stream through the sched engine onto one
// local cluster holding a full-size and a half-size relation pair, each
// declustered on unique1 (HPJA queries) and on unique2 (the rest).
type multiuser struct {
	full, small relPair
	rels        map[[2]bool]loadedPair // by {small, hpja}
	c           *gamma.Cluster
}

func (m *multiuser) generate(cfg config) int64 {
	m.full = genPair(cfg.outerN, cfg.innerN, cfg.seed)
	m.small = genPair(cfg.outerN/2, cfg.innerN/2, cfg.seed+17)
	return int64(len(m.full.outer) + len(m.small.outer))
}

func (m *multiuser) load(r *runner) (int64, error) {
	m.c = gamma.NewLocal(disks, r.model)
	m.rels = make(map[[2]bool]loadedPair)
	var n int64
	for _, small := range []bool{false, true} {
		pair, size := m.full, "full"
		if small {
			pair, size = m.small, "small"
		}
		for _, hpja := range []bool{true, false} {
			attr := tuple.Unique1
			if !hpja {
				attr = tuple.Unique2
			}
			rel, err := loadPair(m.c, fmt.Sprintf("%s.p%d", size, attr), pair, attr)
			if err != nil {
				return 0, err
			}
			m.rels[[2]bool{small, hpja}] = rel
			n += pair.tuples()
		}
	}
	return n, nil
}

func (m *multiuser) prepare(*runner, int) error { return nil }

// run admits one pass's queries. Each pass draws its own arrival schedule
// and query mix, so a run averages over many mixes instead of measuring one.
func (m *multiuser) run(r *runner, p int) error {
	innerBytes := int64(len(m.full.inner)) * tuple.Bytes
	queries := sched.GenWorkload(sched.WorkloadSpec{
		N:               multiuserQueries,
		Seed:            derive(r.cfg.seed, 0xA7713, p),
		MeanGapNs:       cost.DurNs(multiuserGap),
		InnerBytes:      innerBytes,
		OuterBytes:      int64(len(m.full.outer)) * tuple.Bytes,
		SmallInnerBytes: int64(len(m.small.inner)) * tuple.Bytes,
		SmallOuterBytes: int64(len(m.small.outer)) * tuple.Bytes,
	})
	var execWall time.Duration
	eng, err := sched.New(sched.Config{
		Pool:   gamma.NewMemPool(2 * innerBytes),
		Policy: sched.Fair,
		MPL:    multiuserMPL,
		Model:  r.model,
		Exec: func(q *sched.Query, grant int64) (*core.Report, error) {
			rel := m.rels[[2]bool{q.Small, q.HPJA}]
			spec := core.Spec{
				Alg:         q.Alg,
				R:           rel.r,
				S:           rel.s,
				RAttr:       tuple.Unique1,
				SAttr:       tuple.Unique1,
				MemBytes:    grant,
				BitFilter:   q.Filter,
				StoreResult: true,
				QueryID:     q.ID,
			}
			// Simulated time depends only on the query's shape and grant.
			key := fmt.Sprintf("%v/hpja=%t/filter=%t/small=%t/grant=%d", q.Alg, q.HPJA, q.Filter, q.Small, grant)
			t := walltime.Now()
			rep, err := r.join(m.c, spec, rel.want, key, false)
			execWall += walltime.Since(t)
			return rep, err
		},
	})
	if err != nil {
		return err
	}
	sp := r.tr.begin("sched.engine_run", r.parent)
	outer := r.parent
	r.parent = sp
	t := walltime.Now()
	res, err := eng.Run(queries)
	wall := walltime.Since(t)
	r.parent = outer
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if res.Completed != len(queries) {
		return fmt.Errorf("%d of %d queries completed", res.Completed, len(queries))
	}
	if r.cur != nil {
		s := &r.sched
		s.passes++
		s.selfMs = append(s.selfMs, ms(wall-execWall))
		s.waitS += res.MeanWaitNs.Seconds()
		var ratioSum float64
		for _, q := range res.Queries {
			ratioSum += q.RatioAtAdmission
		}
		s.ratio += ratioSum / float64(len(res.Queries))
		s.qps += res.ThroughputQPS
		s.peakMPL += float64(res.PeakMPL)
	}
	return nil
}

func (m *multiuser) replayInput() replayInput {
	return replayInput{
		outer: m.full.outer, inner: m.full.inner, partAttr: tuple.Unique1,
		diskSites: m.c.DiskSites(), joinSites: m.c.JoinSites(),
	}
}
