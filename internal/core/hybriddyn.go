package core

import (
	"math"
	"sort"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
	"gammajoin/internal/xrand"
)

// dynPartSalt decorrelates the *sub*-partition function from the system
// hash (the identity on benchmark keys), so a site's partitions fill evenly
// even on dense key ranges.
const dynPartSalt = 0xD7A2_51DE_0000_0001

// dynPer is the sub-partition count per join site: partition p belongs to
// join site p/per, exactly the site the joining split table (h mod nj)
// would pick for p's hashes.
func (rc *runCtx) dynPer(np int) int {
	per := np / len(rc.joinSites)
	if per < 1 {
		per = 1
	}
	return per
}

// dynPart maps a routing hash to a dynamic-Hybrid partition. The high part
// of the index is the joining split table's choice (h mod nj) — so routing
// a tuple to its partition's owner sends it exactly where static Hybrid
// would, preserving the paper's Table 2 locality when relations are
// hash-partitioned on the join attribute — and the low part sub-partitions
// the site's share into per independently spillable pieces.
func (rc *runCtx) dynPart(h uint64, np int) int {
	nj := uint64(len(rc.joinSites))
	per := uint64(rc.dynPer(np))
	return int((h%nj)*per + xrand.Mix64(h^dynPartSalt)%per)
}

// dynOwner is the join site that owns a partition: it builds the partition's
// resident hash table and makes its spill/keep decisions. After a failover
// shrinks the join-site list, np/per no longer divide evenly and the tail of
// the partition range becomes unreachable by dynPart; the clamp keeps those
// never-filled partitions owned by the last site.
func (rc *runCtx) dynOwner(p, np int) int {
	idx := p / rc.dynPer(np)
	if idx >= len(rc.joinSites) {
		idx = len(rc.joinSites) - 1
	}
	return rc.joinSites[idx]
}

// dynHome is the disk site holding a partition's spill files: the disk
// co-located with the partition's owner when the owner has one (the local
// configuration — spills and spilled-outer forwards then stay off the
// wire, like static Hybrid's split-table-aligned bucket fragments), or the
// owner-indexed disk otherwise.
func (rc *runCtx) dynHome(p, np int) int {
	return rc.diskSites[(p/rc.dynPer(np))%len(rc.diskSites)]
}

// The running budget multiplier is clamped so compounding swings cannot
// starve a site to zero or grow its lease without bound.
const (
	dynMinFactor = 0.125
	dynMaxFactor = 4.0
)

// dynSite is one join site's adaptation state during the dynamic build:
// the partitions it owns, their resident hash tables, its bit filter, and
// the site's current share of the (fluctuating) aggregate memory budget. It
// is only ever touched by the owning site's worker goroutine during a phase
// and by the coordinator at phase barriers.
type dynSite struct {
	parts  []int              // owned partitions, ascending
	tables []*gamma.HashTable // every partition's table; the site uses only its parts'
	flt    *bitfilter.Filter  // covers every inner tuple the site owns; nil without BitFilter
	budget int64              // current resident-byte budget
	factor float64            // cumulative budget multiplier, clamped
	epoch  int                // batch ordinal driving BudgetSwing rolls
	spills []*netsim.Stream   // the build consumer's spill streams, by partition; nil outside it
}

// residentBytes is the site's current resident payload (spilled partitions'
// tables are empty, so summing every owned table is exact).
func (st *dynSite) residentBytes() int64 {
	var n int64
	for _, p := range st.parts {
		n += st.tables[p].BytesUsed()
	}
	return n
}

// runHybridDyn executes the dynamic robust Hybrid hash join (arXiv
// 2112.02480 applied to the Section 3.4 parallel Hybrid): every partition
// starts resident, the spill decision is deferred until observed build
// sizes or a budget revocation force one (victim = largest resident
// partition, seed-stable), and reclaimed headroom resurrects spilled
// partitions at the build/probe barrier. Partitions still spilled when the
// probe ends are joined from disk exactly like Grace buckets.
func (rc *runCtx) runHybridDyn() error {
	np := rc.dynPartitions()
	rc.buckets = np

	// Build + resurrect + probe are ONE redo-able unit: the resident
	// partitions live only in the join sites' memories between the phases,
	// so a crash loses them and the whole pass must re-run. Everything the
	// unit consumes is durable; everything it creates (tables, filters,
	// partition files — freshly named each attempt via fileSeq) is rebuilt
	// inside the closure over the possibly-shrunken join-site list.
	var (
		rFiles, sFiles []*wiss.File
		spilled        []bool
	)
	if err := rc.runUnit(func() error {
		var err error
		rFiles, sFiles, spilled, err = rc.dynBuildProbe(np)
		return err
	}); err != nil {
		return err
	}

	// ---- join the partitions that stayed spilled, grouped to memory ----
	// Partitions are finer-grained than static Hybrid's buckets, so joining
	// them one per phase would pay one scheduler startup per partition.
	// Instead they are first-fit-decreasing packed into memory-sized join
	// groups (partitions are disjoint in key space, so any union of them
	// joins correctly in one pass) — the same packing bucket tuning applies
	// to Grace's measured buckets.
	var spilledParts []int
	for p := 0; p < np; p++ {
		if spilled[p] && rFiles[p].Len() > 0 {
			spilledParts = append(spilledParts, p)
		}
	}
	for _, group := range rc.dynJoinGroups(spilledParts, rFiles, np) {
		var rsrc, ssrc []fileAt
		for _, p := range group {
			rsrc = append(rsrc, fileAt{site: rc.dynHome(p, np), f: rFiles[p]})
			if sFiles[p].Len() > 0 {
				ssrc = append(ssrc, fileAt{site: rc.dynHome(p, np), f: sFiles[p]})
			}
		}
		if err := rc.hashJoinStreams(groupLabel("partition", group), group[0], rsrc, ssrc, 0, 0, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// dynJoinGroups packs spilled partitions into join groups, largest
// partition first (ties to the lowest id). Partition p's tuples all join at
// site p/per (the split-table-aligned index), so packing tracks a per-site
// load vector against the site's table capacity — exactly bucket tuning's
// fit rule. A partition too big alone gets its own group; the join's
// overflow machinery absorbs the excess.
func (rc *runCtx) dynJoinGroups(parts []int, rFiles []*wiss.File, np int) [][]int {
	per := rc.dynPer(np)
	capBytes := rc.tableCap()
	nj := len(rc.joinSites)
	order := append([]int(nil), parts...)
	sort.SliceStable(order, func(i, j int) bool {
		return rFiles[order[i]].Len() > rFiles[order[j]].Len()
	})
	var groups [][]int
	var loads [][]int64
	for _, p := range order {
		sz := rFiles[p].Len() * tuple.Bytes
		j := p / per
		if j >= nj {
			j = nj - 1
		}
		placed := false
		for g := range groups {
			if loads[g][j]+sz <= capBytes {
				groups[g] = append(groups[g], p)
				loads[g][j] += sz
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{p})
			l := make([]int64, nj)
			l[j] = sz
			loads = append(loads, l)
		}
	}
	for g := range groups {
		sort.Ints(groups[g])
	}
	return groups
}

// dynPartitions picks the partition count from the (possibly mis-estimated)
// inner size: about twice the estimated memory need per join site, so the
// resident set has enough granularity to track the budget, floored at 4 and
// capped at 16 partitions per site. Unlike static Hybrid's bucket count, a
// wrong estimate here only coarsens granularity — it never locks in a wrong
// resident fraction.
func (rc *runCtx) dynPartitions() int {
	nj := len(rc.joinSites)
	if rc.spec.ForceBuckets > 0 {
		// Round up to a per-site granularity: the partition index encodes
		// the owning join site, so np must be a multiple of the site count.
		per := (rc.spec.ForceBuckets + nj - 1) / nj
		return per * nj
	}
	innerBytes := rc.spec.R.Bytes()
	if rc.spec.InnerSizeHint > 0 {
		innerBytes = rc.spec.InnerSizeHint
	}
	need := rc.estimatedInner(innerBytes) / float64(rc.memTotal)
	per := int(math.Ceil(2 * need))
	if per < 4 {
		per = 4
	}
	if per > 16 {
		per = 16
	}
	return per * nj
}

// dynBuildProbe runs the adaptive build, the barrier-time resurrection, and
// the overlapped partition-S/probe pass. It returns the partition files and
// the final spill state, so runHybridDyn's disk-join phases read the state
// of the attempt that actually completed.
func (rc *runCtx) dynBuildProbe(np int) (rFiles, sFiles []*wiss.File, spilled []bool, err error) {
	rFiles, rSink, err := rc.dynPartitionFiles("hybriddyn.r", np, tagDynRBase)
	if err != nil {
		return nil, nil, nil, err
	}
	sFiles, sSink, err := rc.dynPartitionFiles("hybriddyn.s", np, tagDynSBase)
	if err != nil {
		return nil, nil, nil, err
	}
	spilled = make([]bool, np)
	// poisoned marks the (vanishingly rare) partition holding a tuple whose
	// overflow key saturates the cutoff domain; such a partition must stay
	// spilled because its tuples cannot re-enter a cutoff-guarded table.
	poisoned := make([]bool, np)

	// states is indexed by site. Every site starts at the nominal lease; its
	// build applies the phase's memory pressure before the first tuple.
	states := make([]dynSite, len(rc.c.Sites))
	tables := make([]*gamma.HashTable, np)
	for _, j := range rc.joinSites {
		st := &states[j]
		st.tables, st.budget, st.factor = tables, rc.tableCap(), 1
		if rc.spec.BitFilter {
			st.flt = bitfilter.New(rc.filterBits)
		}
	}
	// Tables are allocated generously — the largest budget a swing can ever
	// grant, plus slack — so the histogram/cutoff eviction machinery never
	// fires inside a "resident" partition; partitions move to disk whole or
	// not at all, which is the invariant the probe relies on.
	gencap := int64(dynMaxFactor*float64(rc.tableCap())) + 64*tuple.Bytes
	// A partition expects its 1/np share of R; the eighth and the 64 are
	// slack for hash variance, so the entry array is rarely regrown.
	share := int(rc.spec.R.N) / np
	fill := share + share/8 + 64
	for p := range tables {
		st := &states[rc.dynOwner(p, np)]
		st.parts = append(st.parts, p)
		tables[p] = gamma.NewHashTable(rc.m, gencap, rc.spec.RAttr, fill)
	}

	// ---- phase 1: partition R — every partition starts resident ----
	// Every inner tuple flows through its partition's owner, spill-bound
	// ones included: the owner observes true partition sizes (the whole
	// point of deferring the spill) and its bit filter covers the entire
	// inner relation, so filtering spilled outer tuples stays safe.
	build := rc.newPhase("dyn partition R + build",
		opLabels{produce: "scan", consume: "build + adapt", write: "spill write"}, -1)
	build.end.SplitEntries = np
	rc.scan(&build, relSources(rc.spec.R), rc.spec.RAttr, rc.spec.RPred, 0, false, router{
		slots:  np,
		route:  func(_ *cost.Acct, h uint64) (int, bool) { return rc.dynPart(h, np), true },
		stream: func(p int) (int, int) { return rc.dynOwner(p, np), tagProbe },
	})
	phaseOrd := len(rc.q.Phases)
	for _, j := range rc.joinSites {
		build.add(consume, j, func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			st := &states[j]
			// The admission-time lease may already be under pressure: the
			// registry's per-phase factor rescales the nominal lease, so a
			// shrink is a revocation the build absorbs from the first tuple
			// on.
			rc.dynRebudget(a, st, rc.c.Faults.MemFactor(phaseOrd))
			st.spills = snd.StreamCache(np)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					h := b.Hashes[i]
					if st.flt != nil {
						a.AddCPU(rc.m.FilterBit)
						st.flt.Set(h)
					}
					p := rc.dynPart(h, np)
					if spilled[p] {
						snd.SendTo(rc.dynSpillStream(snd, st, p, np), &b.Tuples[i], h)
						continue
					}
					tbl := st.tables[p]
					if gamma.AboveCutoff(tbl.Cutoff(), h) || tbl.BytesUsed()+tuple.Bytes > gencap {
						// Outgrew even the generous allocation (or carries a
						// cutoff-saturating key): demote the partition whole.
						if gamma.AboveCutoff(tbl.Cutoff(), h) {
							poisoned[p] = true
						}
						a.AddCPU(rc.m.SpillDecide)
						rc.dynSpill(a, snd, st, p, np, spilled)
						snd.SendTo(rc.dynSpillStream(snd, st, p, np), &b.Tuples[i], h)
						continue
					}
					tbl.Insert(a, &b.Tuples[i], h)
				}
				// One batch = one adaptation epoch: roll the swing injector,
				// then enforce the budget largest-partition-first.
				st.epoch++
				if f := rc.c.Faults.BudgetSwing(phaseOrd, st.epoch); f != 1 {
					rc.dynRebudget(a, st, f)
				}
				rc.dynEnforce(a, snd, st, np, spilled)
			}
			st.spills = nil // the handles die with the phase's sender
		})
	}
	rSink.install(&build, write, nil)
	if err := rc.runPhase(build); err != nil {
		return nil, nil, nil, err
	}

	// ---- barrier: resurrect spilled partitions into reclaimed headroom ----
	// Largest spilled partition first (ties to the lowest id), greedily
	// while it fits — the mirror image of the spill policy, so a budget
	// that swung down and back up converges on the same resident set an
	// untouched build would have kept.
	resurrect := make([][]int, len(rc.c.Sites)) // by home disk site: partitions, ascending
	var nRes int
	for _, j := range rc.joinSites {
		st := &states[j]
		headroom := st.budget - st.residentBytes()
		var cands []int
		for _, p := range st.parts {
			if spilled[p] && !poisoned[p] && rFiles[p].Len() > 0 {
				cands = append(cands, p)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool {
			return rFiles[cands[a]].Len() > rFiles[cands[b]].Len()
		})
		for _, p := range cands {
			sz := rFiles[p].Len() * tuple.Bytes
			if sz > headroom {
				continue
			}
			headroom -= sz
			home := rc.dynHome(p, np)
			resurrect[home] = append(resurrect[home], p)
			nRes++
		}
	}
	for _, parts := range resurrect {
		sort.Ints(parts)
	}
	if nRes > 0 {
		if err := rc.dynResurrect(np, states, resurrect, rFiles); err != nil {
			return nil, nil, nil, err
		}
		for _, parts := range resurrect {
			for _, p := range parts {
				spilled[p] = false
			}
		}
	}

	// ---- phase: partition S, probing the resident partitions ----
	probe := rc.newPhase("dyn partition S + probe",
		opLabels{produce: "scan", consume: "split + probe", write: "store"}, -1)
	probe.end.SplitEntries = np
	// Spilled-partition appends run before the probe at a site playing both
	// roles.
	sSink.install(&probe, consume, nil)
	// Spill states are fixed for the whole phase, so each partition has one
	// stream: its spill file's or its owner's probe stream.
	rc.scan(&probe, relSources(rc.spec.S), rc.spec.SAttr, rc.spec.SPred, 0, rc.spec.BitFilter, router{
		slots: np,
		route: func(a *cost.Acct, h uint64) (int, bool) {
			p := rc.dynPart(h, np)
			j := rc.dynOwner(p, np)
			// The owner's filter saw the whole inner, so dropping disk-bound
			// outer tuples is safe — but like static Hybrid's bucket forming
			// it is the FilterForming extension, not the base algorithm.
			if flt := states[j].flt; flt != nil && (!spilled[p] || rc.spec.FilterForming) {
				a.AddCPU(rc.m.FilterBit)
				if !flt.Test(h) {
					rc.filterDropped.Add(1)
					return 0, false
				}
			}
			return p, true
		},
		stream: func(p int) (int, int) {
			if spilled[p] {
				return rc.dynHome(p, np), tagDynSBase + p
			}
			return rc.dynOwner(p, np), tagProbe
		},
	})
	for _, j := range rc.joinSites {
		probe.add(consume, j, func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			st := &states[j]
			em := rc.newEmitter(j, snd)
			defer em.close()
			// One match callback for the whole drain; outer is rebound per
			// probed tuple (partitioned tables rule out ProbeBatch here —
			// each tuple may hit a different table).
			var outer *tuple.Tuple
			onMatch := func(match *tuple.Tuple) { em.emit(a, match, outer) }
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					outer = &b.Tuples[i]
					h := b.Hashes[i]
					tbl := st.tables[rc.dynPart(h, np)]
					tbl.Probe(a, h, outer.Int(rc.spec.SAttr), onMatch)
				}
			}
			for _, p := range st.parts {
				if tbl := st.tables[p]; tbl.Len() > 0 {
					rc.noteChains(j, tbl)
				}
			}
		})
	}
	rc.storeAt(&probe, write)
	if err := rc.runPhase(probe); err != nil {
		return nil, nil, nil, err
	}
	// The probe barrier has passed, so no worker still holds pointers into
	// the per-partition tables; the disk-join phases that follow read only
	// the partition files. Recycle the tables (error paths leave them to
	// the GC — the redo machinery rebuilds fresh state) and clear the slice
	// every site shares, so no stale pointer reaches a reused table.
	for _, tbl := range tables {
		tbl.Release()
	}
	clear(tables)
	return rFiles, sFiles, spilled, nil
}

// dynRebudget compounds a budget-swing factor into the site's running
// multiplier (clamped) and notes the revocation or re-grant.
func (rc *runCtx) dynRebudget(a *cost.Acct, st *dynSite, f float64) {
	nf := min(max(st.factor*f, dynMinFactor), dynMaxFactor)
	st.factor = nf
	nb := int64(nf * float64(rc.tableCap()))
	switch {
	case nb < st.budget:
		a.Note("mem.revoke", st.budget-nb)
		rc.revokedBytes.Add(st.budget - nb)
	case nb > st.budget:
		a.Note("mem.regrant", nb-st.budget)
	}
	st.budget = nb
}

// dynEnforce spills whole partitions, largest first (ties to the lowest
// id), until the site's resident payload fits its budget. Each victim
// choice is a priced adaptation decision.
func (rc *runCtx) dynEnforce(a *cost.Acct, snd *netsim.Sender, st *dynSite, np int, spilled []bool) {
	for st.residentBytes() > st.budget {
		a.AddCPU(rc.m.SpillDecide)
		victim, vb := -1, int64(0)
		for _, p := range st.parts {
			if spilled[p] {
				continue
			}
			if b := st.tables[p].BytesUsed(); b > vb {
				vb, victim = b, p
			}
		}
		if victim < 0 || vb == 0 {
			return
		}
		rc.dynSpill(a, snd, st, victim, np, spilled)
	}
}

// dynSpill demotes one whole partition: its table drains to the partition's
// home disk file (routing hashes ride along) and the partition is marked
// spilled so later tuples bypass the owner's memory.
func (rc *runCtx) dynSpill(a *cost.Acct, snd *netsim.Sender, st *dynSite, p, np int, spilled []bool) {
	tuples, hashes := st.tables[p].SpillAll(a)
	out := rc.dynSpillStream(snd, st, p, np)
	for i := range tuples {
		snd.SendTo(out, &tuples[i], hashes[i])
	}
	spilled[p] = true
	a.Note("part.spill", int64(len(tuples)))
	rc.spillCount.Add(1)
}

// dynSpillStream returns partition p's inner spill stream from the build
// consumer's cache, resolving it on first use.
func (rc *runCtx) dynSpillStream(snd *netsim.Sender, st *dynSite, p, np int) *netsim.Stream {
	out := st.spills[p]
	if out == nil {
		out = snd.Stream(rc.dynHome(p, np), tagDynRBase+p)
		st.spills[p] = out
	}
	return out
}

// dynResurrect re-reads the chosen partitions from their home disks and
// rebuilds their hash tables at the owning join sites.
func (rc *runCtx) dynResurrect(np int, states []dynSite, resurrect [][]int, rFiles []*wiss.File) error {
	res := rc.newPhase("dyn resurrect", opLabels{produce: "partition scan", consume: "rebuild"}, -1)
	for ds, parts := range resurrect {
		for _, p := range parts {
			owner := rc.dynOwner(p, np)
			rc.scan(&res, []fileAt{{site: ds, f: rFiles[p]}}, rc.spec.RAttr, nil, 0, false, toSite(owner, tagProbe))
		}
	}
	for _, j := range rc.joinSites {
		res.add(consume, j, func(a *cost.Acct, _ *netsim.Sender, batches []*netsim.Batch) {
			st := &states[j]
			counts := make([]int64, np)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					h := b.Hashes[i]
					p := rc.dynPart(h, np)
					st.tables[p].Insert(a, &b.Tuples[i], h)
					counts[p]++
				}
			}
			for _, p := range st.parts {
				if n := counts[p]; n > 0 {
					a.AddCPU(rc.m.ResurrectDecide)
					a.Note("part.resurrect", n)
					rc.resurrections.Add(1)
				}
			}
		})
	}
	return rc.runPhase(res)
}

// dynPartitionFiles creates one temp file per dynamic-Hybrid partition at
// the partition's home disk site, and the sink that writes them under tags
// tagBase+partition. Unlike bucket files, a partition is not horizontally
// fragmented: spills are rare whole-table demotions, so each partition
// lives on one disk. Spill writes are forming writes: they count toward the
// paper's local-write fraction like bucket writes do.
func (rc *runCtx) dynPartitionFiles(name string, np, tagBase int) ([]*wiss.File, *fileSink, error) {
	files := make([]*wiss.File, np)
	sink := &fileSink{rc: rc, files: make([]sinkFile, 0, np), forming: true}
	for p := range files {
		home := rc.dynHome(p, np)
		f, err := rc.newTempFile(home, name, ".p", p)
		if err != nil {
			return nil, nil, err
		}
		files[p] = f
		sink.add(home, tagBase+p, f, nil)
	}
	return files, sink, nil
}
