// Package optimizer implements the join-strategy decisions the paper's
// conclusions prescribe for Gamma's query optimizer:
//
//   - "for uniformly distributed join attribute values the parallel Hybrid
//     algorithm appears to be the algorithm of choice";
//   - "in the case where the join attribute values of the inner relation
//     are highly skewed and memory is limited, the optimizer should choose
//     a non-hash-based algorithm such as sort-merge";
//   - "bit filtering should be used because it is cheap";
//   - remote (diskless) join processors pay off for non-HPJA joins with
//     sufficient memory (Figure 16), while HPJA joins should stay local
//     (Figure 15);
//   - the bucket count comes from the memory ratio corrected by the
//     Appendix-A bucket analyzer.
package optimizer

import (
	"sort"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
)

// Stats summarizes what the optimizer knows about a planned join.
type Stats struct {
	// InnerBytes and MemBytes size the inner relation against the
	// aggregate join memory.
	InnerBytes int64
	MemBytes   int64
	// InnerSkew is the ratio of the most loaded joining site's share of
	// the inner relation to the mean share, under the system hash
	// function (1.0 = perfectly balanced).
	InnerSkew float64
	// HPJA reports whether both relations are hash-declustered on the
	// join attributes, making redistribution free.
	HPJA bool
}

// SkewThreshold is the imbalance beyond which a per-site hash table is
// expected to overflow: the most loaded site exceeds its memory share.
const SkewThreshold = 1.05

// MemoryLimited reports whether the join memory cannot hold the inner
// relation (the regime where skew forces repeated overflow resolution).
func (s Stats) MemoryLimited() bool { return s.MemBytes < s.InnerBytes }

// Choose picks the join algorithm per the paper's conclusions.
func Choose(s Stats) core.Algorithm {
	if s.InnerSkew > SkewThreshold && s.MemoryLimited() {
		return core.SortMerge
	}
	return core.Hybrid
}

// UseBitFilter is unconditional: "bit filtering should be used because it
// is cheap and can significantly reduce response times."
func UseBitFilter(Stats) bool { return true }

// ChooseJoinSites places the join: HPJA joins (and memory-limited non-HPJA
// joins, whose disk buckets join like HPJA ones) run on the disk sites;
// non-HPJA joins with sufficient memory are offloaded to diskless
// processors when the cluster has them (Figure 16's crossover).
func ChooseJoinSites(c *gamma.Cluster, s Stats) []int {
	if len(c.DisklessSites()) == 0 {
		return c.DiskSites()
	}
	if !s.HPJA && !s.MemoryLimited() {
		return c.DisklessSites()
	}
	return c.DiskSites()
}

// Buckets computes the Grace/Hybrid bucket count the join runs with:
// core.Buckets for an inner relation of innerTuples tuples, corrected by the
// bucket analyzer for the chosen site placement.
func Buckets(s Stats, innerTuples int64, numDisks, joinNodes int, hybrid bool) int {
	n := core.Buckets(float64(s.InnerBytes), s.MemBytes, innerTuples, false)
	return split.AnalyzeBuckets(hybrid, numDisks, joinNodes, n)
}

// SampleSkew measures InnerSkew for a relation and join attribute by
// scanning the (already declustered) fragments and histogramming the
// system-hash site assignment across nSites joining processors. Gamma
// would keep such statistics in its catalog; we compute them exactly.
func SampleSkew(rel *gamma.Relation, attr, nSites int) float64 {
	if nSites <= 0 || rel.N == 0 {
		return 1.0
	}
	counts := make([]int64, nSites)
	var sink cost.Acct
	for _, f := range rel.Fragments {
		f.Scan(&sink, func(t *tuple.Tuple) bool {
			counts[split.Hash(t.Int(attr), 0)%uint64(nSites)]++
			return true
		})
	}
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(rel.N) / float64(nSites)
	return float64(max) / mean
}

// Plan is a complete optimizer decision for one join.
type Plan struct {
	Alg       core.Algorithm
	JoinSites []int
	Buckets   int
	BitFilter bool
	Stats     Stats
}

// PlanJoin gathers statistics and produces the full decision for joining
// inner ⋈ outer on the given attributes with memBytes of aggregate memory.
func PlanJoin(c *gamma.Cluster, inner, outer *gamma.Relation, innerAttr, outerAttr int, memBytes int64) Plan {
	return PlanJoinSized(c, inner, outer, innerAttr, outerAttr, inner.Bytes(), memBytes)
}

// PlanJoinSized is PlanJoin with an explicit estimate of the inner size
// after any pushed selection (Gamma's optimizer derives it from catalog
// selectivity statistics); memory sufficiency and bucket counts follow the
// estimate, not the raw relation size.
func PlanJoinSized(c *gamma.Cluster, inner, outer *gamma.Relation, innerAttr, outerAttr int,
	innerBytesEst, memBytes int64) Plan {
	js := c.JoinSites()
	st := Stats{
		InnerBytes: innerBytesEst,
		MemBytes:   memBytes,
		InnerSkew:  SampleSkew(inner, innerAttr, len(js)),
		HPJA: inner.Strategy == gamma.HashPart && outer.Strategy == gamma.HashPart &&
			inner.PartAttr == innerAttr && outer.PartAttr == outerAttr,
	}
	alg := Choose(st)
	sites := ChooseJoinSites(c, st)
	if alg == core.SortMerge {
		sites = c.DiskSites() // sort-merge cannot use diskless processors
	}
	plan := Plan{
		Alg:       alg,
		JoinSites: sites,
		BitFilter: UseBitFilter(st),
		Stats:     st,
	}
	if alg == core.Grace || alg == core.Hybrid {
		plan.Buckets = Buckets(st, inner.N, len(c.DiskSites()), len(sites), alg == core.Hybrid)
	}
	sort.Ints(plan.JoinSites)
	return plan
}

// Spec converts a plan into an executable core.Spec.
func (p Plan) Spec(inner, outer *gamma.Relation, innerAttr, outerAttr int) core.Spec {
	return core.Spec{
		Alg:         p.Alg,
		R:           inner,
		S:           outer,
		RAttr:       innerAttr,
		SAttr:       outerAttr,
		MemBytes:    p.Stats.MemBytes,
		JoinSites:   p.JoinSites,
		BitFilter:   p.BitFilter,
		StoreResult: true,
	}
}
