package core

import (
	"fmt"

	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/pred"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
)

// hashJoinStreams joins a set of inner-relation source files against a set
// of outer-relation source files by redistributing them through the joining
// split table, building and probing memory-limited hash tables at the join
// sites, and recursively resolving hash-table overflow with the paper's
// histogram/cutoff mechanism — i.e., the Simple hash-join, which is also
// Gamma's overflow-resolution method for Grace and Hybrid bucket joins.
//
// Each overflow level uses a new hash function (seed+1), which is what
// converts HPJA joins into non-HPJA joins after the first overflow
// (Section 4.1).
//
// base is the overflow level the first iteration represents (0 for a fresh
// Simple join, 1 when resolving a Hybrid first-bucket overflow). bucket is
// the 0-based bucket this join processes, carried onto the trace spans (-1
// for un-bucketed joins). rPred and sPred are selections applied to the
// first level's scans (relation scans; overflow files are already
// filtered).
func (rc *runCtx) hashJoinStreams(prefix string, bucket int, rsrc, ssrc []fileAt, seed uint64, base int,
	rPred, sPred pred.Pred) error {
	level := 0
	prevR := int64(-1)
	for len(rsrc) > 0 {
		if level > 64 {
			return fmt.Errorf("core: %s: overflow recursion exceeded 64 levels; memory too small", prefix)
		}
		// When an overflow partition stops shrinking — every tuple of a
		// value that exceeds site memory shares one hash, so no cutoff
		// can split it — rehashing cannot help. Fall back to a chunked
		// block join of the stuck partitions, which always terminates.
		if cur := totalTuples(rsrc); cur == prevR && level > 0 {
			blockName := fmt.Sprintf("%s block join L%d", prefix, level+base)
			return rc.runUnit(func() error {
				return rc.blockJoinLevel(blockName, bucket, rsrc, ssrc)
			})
		} else {
			prevR = cur
		}
		name := prefix
		if level+base > 0 {
			name = fmt.Sprintf("%s overflow L%d", prefix, level+base)
		}
		var rp, sp pred.Pred
		if level == 0 {
			rp, sp = rPred, sPred
		}
		// Each level is one redo-able unit: joinLevel recreates its hash
		// tables, filters, and (freshly named) overflow temp files per call,
		// and its inputs — base fragments or the previous level's flushed
		// overflow files — are durable, so a failover re-runs just this
		// build/probe pair.
		var rover, sover []fileAt
		err := rc.runUnit(func() error {
			var lerr error
			rover, sover, lerr = rc.joinLevel(name, bucket, rsrc, ssrc, seed+uint64(level), rp, sp)
			return lerr
		})
		if err != nil {
			return err
		}
		if len(rover) > 0 && level+base+1 > rc.overflowLevels {
			rc.overflowLevels = level + base + 1
		}
		rsrc, ssrc = rover, sover
		level++
	}
	return nil
}

func totalTuples(src []fileAt) int64 {
	var n int64
	for _, f := range src {
		n += f.f.Len()
	}
	return n
}

// blockJoinLevel joins stuck overflow partitions with a chunked block
// hash join at the sites holding them: the inner file is loaded one
// memory-sized chunk at a time and the entire local outer file is rescanned
// against each chunk. Inner and outer overflow files with the same index
// were routed by the same hash and cutoff, so pairing them site by site is
// exhaustive and exact.
func (rc *runCtx) blockJoinLevel(name string, bucket int, rsrc, ssrc []fileAt) error {
	// Pair outer sources with inner sources by file order: joinLevel
	// emits them in matching join-site order; unmatched outer files have
	// no inner partner and produce nothing.
	ps := rc.newPhase(name, opLabels{produce: "block join", consume: "store"}, bucket)
	for i, rf := range rsrc {
		if i >= len(ssrc) {
			break
		}
		rfile, sfile := rf.f, ssrc[i].f
		site := rf.site
		ps.add(produce, site, func(a *cost.Acct, snd *netsim.Sender, _ []*netsim.Batch) {
			em := rc.newEmitter(site, snd)
			defer em.close()
			chunkCap := int(rc.tableCap() / tuple.Bytes)
			if chunkCap < 1 {
				chunkCap = 1
			}
			// One match callback for the whole chunk loop; outer is rebound
			// per probed tuple so the closure is allocated once, not per
			// tuple.
			var outer *tuple.Tuple
			onMatch := func(match *tuple.Tuple) { em.emit(a, match, outer) }
			cur := rfile.NewCursor(a)
			for {
				// Each chunk's table lives in this iteration only, so no
				// reference outlasts its Release.
				tbl := gamma.NewHashTable(rc.m, int64(chunkCap+1)*tuple.Bytes, rc.spec.RAttr)
				n := 0
				for n < chunkCap {
					t, ok := cur.Next()
					if !ok {
						break
					}
					a.AddCPU(rc.m.Hash)
					tbl.Insert(a, &t, split.Hash(t.Int(rc.spec.RAttr), 0))
					n++
				}
				if n == 0 {
					tbl.Release()
					return
				}
				sfile.Scan(a, func(t *tuple.Tuple) bool {
					a.AddCPU(rc.m.Hash)
					h := split.Hash(t.Int(rc.spec.SAttr), 0)
					outer = t
					tbl.Probe(a, h, t.Int(rc.spec.SAttr), onMatch)
					return true
				})
				// The chunk's probes are done and em.emit copied every match
				// out, so the chunk table can be recycled.
				tbl.Release()
				if n < chunkCap {
					return
				}
			}
		})
	}
	rc.storeAt(&ps, consume)
	return rc.runPhase(ps)
}

// joinLevel runs one build+probe pass over the given source files through
// the joining split table and returns the overflow files feeding the next
// level (empty when the inner fit in memory everywhere).
func (rc *runCtx) joinLevel(name string, bucket int, rsrc, ssrc []fileAt, seed uint64, rPred, sPred pred.Pred) (rover, sover []fileAt, err error) {
	jt, route, err := rc.joining()
	if err != nil {
		return nil, nil, err
	}
	js, err := rc.newJoinStates(name)
	if err != nil {
		return nil, nil, err
	}
	build := rc.newPhase(name+" build", opLabels{produce: "scan", consume: "build", write: "overflow write"}, bucket)
	build.end.SplitEntries = jt.Entries()
	rc.scan(&build, rsrc, rc.spec.RAttr, rPred, seed, false, route)
	rc.buildPass(&build, js)
	if err := rc.runPhase(build); err != nil {
		return nil, nil, err
	}
	probe := rc.newPhase(name+" probe", opLabels{produce: "scan", consume: "probe", write: "store"}, bucket)
	probe.end.SplitEntries = jt.Entries()
	rc.probePass(&probe, js, ssrc, sPred, seed, jt)
	if err := rc.runPhase(probe); err != nil {
		return nil, nil, err
	}
	rover, sover = rc.endPass(js)
	return rover, sover, nil
}
