package core

import (
	"fmt"
	"sort"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
)

// runGrace executes the parallel Grace hash-join (Section 3.3): both
// relations are first partitioned into N disk buckets — each bucket itself
// horizontally partitioned across every disk site via the partitioning
// split table — and the buckets are then joined consecutively through the
// joining split table.
func (rc *runCtx) runGrace() error {
	nb := rc.optimizerBuckets(false)
	if rc.spec.BucketTuning {
		// Bucket tuning [KITS83]: form three times more buckets than
		// memory strictly requires, then combine them into memory-sized
		// join groups by their measured sizes.
		nb *= 3
		if !rc.spec.SkipAnalyzer {
			nb = split.AnalyzeBuckets(false, len(rc.diskSites), len(rc.joinSites), nb)
		}
	}
	rc.buckets = nb
	pt, err := split.NewGrace(nb, rc.diskSites)
	if err != nil {
		return err
	}
	rb, sb, err := rc.bucketSinks("grace", 0, nb)
	if err != nil {
		return err
	}

	// Each forming pass is one redo-able unit: a crash fires at phase
	// entry, so the bucket files have no partial appends and re-running
	// the pass from the (durable, mirror-covered) base fragments is exact.
	// The forming filters and split table survive a failover — Gamma ships
	// them in scheduler control packets, so they are not lost with a site.
	if err := rc.runUnit(func() error {
		return rc.partitionPhase("form R", "bucket write", rc.spec.R, rc.spec.RAttr, rc.spec.RPred, pt, rb)
	}); err != nil {
		return err
	}
	if err := rc.runUnit(func() error {
		return rc.partitionPhase("form S", "bucket write", rc.spec.S, rc.spec.SAttr, rc.spec.SPred, pt, sb)
	}); err != nil {
		return err
	}

	for _, group := range rc.bucketGroups(rb, nb) {
		var rsrc, ssrc []fileAt
		for _, b := range group {
			rsrc = append(rsrc, rb.sources(b)...)
			ssrc = append(ssrc, sb.sources(b)...)
		}
		if err := rc.hashJoinStreams(groupLabel("bucket", group), group[0], rsrc, ssrc, 0, 0, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// groupLabel names a join group by its 1-based members ("bucket 3",
// "partition 1+2").
func groupLabel(kind string, group []int) string {
	label := fmt.Sprintf("%s %d", kind, group[0]+1)
	for _, b := range group[1:] {
		label += fmt.Sprintf("+%d", b+1)
	}
	return label
}

// bucketGroups returns the joining order of buckets: one bucket per group
// normally; with bucket tuning, buckets are first-fit-decreasing packed
// into join groups using their *measured per-site loads*, so that no
// joining site's share of a group exceeds its hash-table capacity even
// under skew — the point of tuning.
func (rc *runCtx) bucketGroups(rb *fileSink, nb int) [][]int {
	if !rc.spec.BucketTuning {
		groups := make([][]int, nb)
		for b := range groups {
			groups[b] = []int{b}
		}
		return groups
	}
	// Per-bucket load vector: tuples destined for each joining site
	// under the joining split table. Fragments map 1:1 onto joining
	// split-table indices (Section 4.1), so the fragment sizes are the
	// per-join-process loads when disks and join nodes are matched;
	// otherwise fall back to assuming even spread.
	nj := len(rc.joinSites)
	capPerSite := rc.tableCap() / tuple.Bytes
	vec := make([][]int64, nb)
	total := make([]int64, nb)
	for b := range vec {
		vec[b] = make([]int64, nj)
	}
	for i, ds := range rc.diskSites {
		for _, sf := range rb.at(ds) {
			n := sf.f.Len()
			total[sf.tag] += n
			if len(rc.diskSites) == nj {
				vec[sf.tag][i%nj] += n
			}
		}
	}
	if len(rc.diskSites) != nj {
		for b := range vec {
			for j := range vec[b] {
				vec[b][j] = (total[b] + int64(nj) - 1) / int64(nj)
			}
		}
	}
	order := make([]int, nb)
	for b := range order {
		order[b] = b
	}
	sort.SliceStable(order, func(i, j int) bool { return total[order[i]] > total[order[j]] })

	var groups [][]int
	var loads [][]int64
	fits := func(g int, b int) bool {
		for j := 0; j < nj; j++ {
			if loads[g][j]+vec[b][j] > capPerSite {
				return false
			}
		}
		return true
	}
	for _, b := range order {
		placed := false
		for g := range groups {
			if fits(g, b) {
				groups[g] = append(groups[g], b)
				for j := 0; j < nj; j++ {
					loads[g][j] += vec[b][j]
				}
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{b})
			l := make([]int64, nj)
			copy(l, vec[b])
			loads = append(loads, l)
		}
	}
	// Deterministic bucket order within each group.
	for g := range groups {
		sort.Ints(groups[g])
	}
	return groups
}

// bucketSinks creates the inner and outer bucket-fragment files, one per
// (bucket, disk site) for buckets [first, n), all inner files before the
// outer ones. With FilterForming each (bucket, disk site) gets one bit
// filter, built from the inner fragment and tested on the outer one.
func (rc *runCtx) bucketSinks(name string, first, n int) (r, s *fileSink, err error) {
	nf := (n - first) * len(rc.diskSites)
	r = &fileSink{rc: rc, files: make([]sinkFile, 0, nf), forming: true, building: true}
	s = &fileSink{rc: rc, files: make([]sinkFile, 0, nf), forming: true}
	create := func(sink *fileSink, rel string) error {
		for b := first; b < n; b++ {
			for _, ds := range rc.diskSites {
				f, err := rc.newTempFile(fmt.Sprintf("%s.%s.b%d", name, rel, b), ds)
				if err != nil {
					return err
				}
				sink.add(ds, b, f, nil)
			}
		}
		return nil
	}
	if err := create(r, "r"); err != nil {
		return nil, nil, err
	}
	if err := create(s, "s"); err != nil {
		return nil, nil, err
	}
	if rc.spec.BitFilter && rc.spec.FilterForming {
		for i := range r.files {
			flt := bitfilter.New(rc.filterBits)
			r.files[i].flt, s.files[i].flt = flt, flt
		}
	}
	return r, s, nil
}
