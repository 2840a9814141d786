package core

import (
	"fmt"
	"sync"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// runSortMerge executes the parallel sort-merge join (Section 3.1): both
// relations are redistributed by hashing the join attribute across the disk
// sites and stored in temporary files, the files are sorted in parallel
// with the available sort/merge memory, and a local merge join computes the
// result at each site. Bit filters are built at each disk site as the inner
// relation arrives and applied to the outer relation before it is stored —
// eliminated tuples are never written, sorted, or merged.
func (rc *runCtx) runSortMerge() error {
	// Join sites are the disk sites, minus any excluded by a recovery
	// restart (newRunCtx intersects JoinSites with the disk sites). A
	// dead site keeps serving reads of its base fragments and the result
	// store — its storage role survives on the mirrored disks — but no
	// longer sorts or merges.
	sites := rc.joinSites
	jt, err := rc.joiningTable(sites)
	if err != nil {
		return err
	}
	memPerSite := rc.memTotal / int64(len(sites))
	if memPerSite < int64(rc.m.P.PageBytes) {
		memPerSite = int64(rc.m.P.PageBytes)
	}

	// Bit filters are built at each site as R arrives and tested as S
	// arrives, before the write: eliminated tuples are never stored.
	n := len(sites)
	tmpR := &fileSink{rc: rc, files: make([]sinkFile, 0, n), forming: true, building: true}
	tmpS := &fileSink{rc: rc, files: make([]sinkFile, 0, n), forming: true}
	tmpRF, srtR, tmpSF, srtS := make([]*wiss.File, n), make([]*wiss.File, n), make([]*wiss.File, n), make([]*wiss.File, n)
	for i, s := range sites {
		if tmpRF[i], err = rc.newTempFile("sm.tmpR", s); err != nil {
			return err
		}
		if srtR[i], err = rc.newTempFile("sm.srtR", s); err != nil {
			return err
		}
		if tmpSF[i], err = rc.newTempFile("sm.tmpS", s); err != nil {
			return err
		}
		if srtS[i], err = rc.newTempFile("sm.srtS", s); err != nil {
			return err
		}
		var flt *bitfilter.Filter
		if rc.spec.BitFilter {
			flt = bitfilter.New(rc.filterBits)
		}
		tmpR.add(s, tagProbe, tmpRF[i], flt)
		tmpS.add(s, tagProbe, tmpSF[i], flt)
	}

	// Each of sort-merge's five phases is its own redo-able unit: every
	// phase reads only durable inputs (base fragments or the previous
	// phase's flushed temp files) and a crash fires at phase entry, before
	// anything was appended — so after a failover the phase simply re-runs
	// with the dead site's scan/sort/merge/store roles adopted by its ring
	// neighbor and its files served from the mirror. The sort/merge plan
	// keeps the ORIGINAL site layout: the dead site's partitions stay
	// where its (mirrored) disk put them, no re-split needed.
	if err := rc.runUnit(func() error {
		return rc.partitionPhase("partition R", "split write", rc.spec.R, rc.spec.RAttr, rc.spec.RPred, jt, tmpR)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.sortPhase("sort R", sites, tmpRF, srtR, rc.spec.RAttr, memPerSite, &rc.sortPassesR)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.partitionPhase("partition S", "split write", rc.spec.S, rc.spec.SAttr, rc.spec.SPred, jt, tmpS)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.sortPhase("sort S", sites, tmpSF, srtS, rc.spec.SAttr, memPerSite, &rc.sortPassesS)
	}); err != nil {
		return err
	}

	// Local merge join in parallel across the disk sites.
	merge := newPhase("merge join", opLabels{produce: "merge join", consume: "store"}, -1)
	for i, s := range sites {
		merge.produce[s] = append(merge.produce[s], func(a *cost.Acct, snd *netsim.Sender) {
			rc.mergeJoinSite(s, a, snd, srtR[i], srtS[i])
		})
	}
	rc.storeAt(merge.consume)
	return rc.runUnit(func() error { return rc.runPhase(merge) })
}

// sortPhase sorts every site's file src[i] into dst[i] in parallel and
// records the maximum number of merge passes across the sites.
func (rc *runCtx) sortPhase(name string, sites []int, src, dst []*wiss.File, attr int,
	memPerSite int64, passes *int) error {
	var mu sync.Mutex
	ps := newPhase(name, opLabels{solo: "sort"}, -1)
	ps.solo = map[int][]func(a *cost.Acct){}
	for i, s := range sites {
		ps.solo[s] = append(ps.solo[s], func(a *cost.Acct) {
			st, err := wiss.Sort(a, src[i], dst[i], attr, memPerSite)
			if err != nil {
				rc.fail(fmt.Errorf("core: %s at site %d: %w", name, s, err))
				return
			}
			mu.Lock()
			if st.MergePasses > *passes {
				*passes = st.MergePasses
			}
			mu.Unlock()
		})
	}
	return rc.runPhase(ps)
}

// mergeJoinSite merge-joins the two sorted local files, grouping duplicate
// inner keys so the outer scan never backs up. When the inner file is
// exhausted the outer scan stops early, skipping unread pages — the paper's
// explanation for sort-merge's strong NU performance.
func (rc *runCtx) mergeJoinSite(site int, a *cost.Acct, snd *netsim.Sender, rf, sf *wiss.File) {
	em := rc.newEmitter(site, snd)
	defer em.close()
	rcur := rf.NewCursor(a)
	scur := sf.NewCursor(a)
	rt, rok := rcur.Next()
	st, sok := scur.Next()
	var group []tuple.Tuple
	for rok && sok {
		a.AddCPU(rc.m.SortCompare)
		rv := rt.Int(rc.spec.RAttr)
		sv := st.Int(rc.spec.SAttr)
		switch {
		case rv < sv:
			rt, rok = rcur.Next()
		case sv < rv:
			st, sok = scur.Next()
		default:
			// Collect the group of inner tuples sharing this key.
			group = group[:0]
			group = append(group, rt)
			for {
				rt, rok = rcur.Next()
				if !rok || rt.Int(rc.spec.RAttr) != rv {
					break
				}
				a.AddCPU(rc.m.SortCompare)
				group = append(group, rt)
			}
			for sok && st.Int(rc.spec.SAttr) == rv {
				a.AddCPU(rc.m.SortCompare)
				for i := range group {
					em.emit(a, &group[i], &st)
				}
				st, sok = scur.Next()
			}
		}
	}
}
