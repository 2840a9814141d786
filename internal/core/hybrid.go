package core

import (
	"fmt"

	"gammajoin/internal/split"
)

// runHybrid executes the parallel Hybrid hash-join (Section 3.4). The
// partitioning of R into buckets is overlapped with building in-memory hash
// tables from bucket 1 at the join sites, and the partitioning of S is
// overlapped with probing; the remaining N-1 buckets are then joined like
// Grace buckets. With AllowOverflow the first bucket may exceed memory and
// the Simple-hash overflow mechanism resolves it (Figure 7's "optimistic"
// strategy).
func (rc *runCtx) runHybrid() error {
	nb := rc.optimizerBuckets(true)
	rc.buckets = nb

	// The two partitioning phases are ONE redo-able unit: bucket 1 lives
	// only in the join sites' memories between them, so a crash before the
	// probe completes loses in-memory state and both passes must re-run.
	// Everything the unit consumes is durable (base fragments, covered by
	// mirrors); everything it creates — split table, hash tables, filters,
	// bucket and overflow files (freshly named each attempt via fileSeq) —
	// is rebuilt inside the closure, over the possibly-shrunken join-site
	// list. The files of the attempt that completed feed the later phases.
	var (
		rb, sb       *fileSink
		rover, sover []fileAt
	)
	if err := rc.runUnit(func() error {
		var err error
		rb, sb, rover, sover, err = rc.hybridPartition(nb)
		return err
	}); err != nil {
		return err
	}

	// ---- phases 3..: join the on-disk buckets ----
	for b := 1; b < nb; b++ {
		if err := rc.hashJoinStreams(fmt.Sprintf("bucket %d", b+1), b, rb.sources(b), sb.sources(b), 0, 0, nil, nil); err != nil {
			return err
		}
	}

	// ---- resolve bucket-1 overflow, if any (AllowOverflow mode) ----
	if len(rover) > 0 {
		return rc.hashJoinStreams("bucket 1", 0, rover, sover, 1, 1, nil, nil)
	}
	return nil
}

// hybridPartition runs Hybrid's overlapped partitioning passes (Section
// 3.4): a build pass and a probe pass through the Hybrid split table, whose
// bucket 1 routes to the join sites, while every disk site writes the
// fragments of buckets 2..N. It returns the bucket files and bucket 1's
// overflow files.
func (rc *runCtx) hybridPartition(nb int) (rb, sb *fileSink, rover, sover []fileAt, err error) {
	pt, err := split.NewHybrid(nb, rc.diskSites, rc.joinSites)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	js, err := rc.newJoinStates("hybrid")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if rb, sb, err = rc.bucketSinks("hybrid", 1, nb); err != nil {
		return nil, nil, nil, nil, err
	}

	// Every disk site runs the bucket writer, even when there are no disk
	// buckets; at a join site it runs after the build or probe.
	partR := newPhase("partition R + build bucket 1",
		opLabels{produce: "scan", consume: "split + build bucket 1", write: "overflow write"}, 0)
	partR.end.SplitEntries = pt.Entries()
	rc.scan(&partR, relSources(rc.spec.R), rc.spec.RAttr, rc.spec.RPred, 0, false, partRoute(pt))
	rc.buildPass(&partR, js)
	rb.install(partR.consume, rc.diskSites)
	if err := rc.runPhase(partR); err != nil {
		return nil, nil, nil, nil, err
	}

	partS := newPhase("partition S + probe bucket 1",
		opLabels{produce: "scan", consume: "split + probe bucket 1", write: "store"}, 0)
	partS.end.SplitEntries = pt.Entries()
	rc.probePass(&partS, js, relSources(rc.spec.S), rc.spec.SPred, 0, pt)
	sb.install(partS.consume, rc.diskSites)
	if err := rc.runPhase(partS); err != nil {
		return nil, nil, nil, nil, err
	}
	rover, sover = rc.endPass(js)
	return rb, sb, rover, sover, nil
}
