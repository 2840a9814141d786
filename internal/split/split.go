// Package split implements Gamma's split tables — the data-partitioning
// mechanism at the heart of all four parallel join algorithms — exactly as
// described in Appendix A of Schneider & DeWitt (1989).
//
// A split table is indexed by applying the mod function to the hashed join
// attribute of each tuple. Three table shapes exist:
//
//   - a joining split table with one entry per process executing the join;
//   - a Grace partitioning split table with numBuckets x numDisks entries,
//     laid out bucket-major so that bucket b's fragment f lives at entry
//     b*numDisks + f;
//   - a Hybrid partitioning split table with joinNodes + (numBuckets-1) x
//     numDisks entries, whose first joinNodes entries route bucket-1 tuples
//     straight to the joining processes.
//
// This literal construction is what makes the paper's short-circuiting
// effects emerge: when a relation was loaded by hashing the same attribute
// across numDisks sites, entry index mod numDisks equals the loading index,
// so every bucket fragment is written to the local disk.
package split

import (
	"fmt"

	"gammajoin/internal/xrand"
)

// Hash hashes a join-attribute value under the given hash-function seed.
//
// Seed 0 is the system-wide default used for declustering relations at load
// time and for routing during joins. It is the identity on the 32-bit value:
// the paper's own examples (Table 1 of Section 4.1, Appendix A) map dense
// benchmark key values straight through the mod function, and that is also
// what makes the optimizer's integral bucket counts partition the dense
// unique1 domain exactly, so Grace and Hybrid "never experienced hash table
// overflow" on uniform data. Overflow cutoffs do not use this value directly
// — see gamma.OverflowKey — so dense routing hashes do not degrade the
// histogram.
//
// The Simple hash-join's overflow resolution switches to a new, fully mixed
// hash function on every overflow level (which is what turns HPJA joins into
// non-HPJA joins, Section 4.1).
func Hash(v int32, seed uint64) uint64 {
	if seed == 0 {
		return uint64(uint32(v))
	}
	return xrand.Mix64(uint64(uint32(v)) ^ (seed * 0x9E3779B97F4A7C15))
}

// JoinTable is a joining split table: one entry per joining process.
type JoinTable struct {
	Sites []int // site id of each joining process
}

// Entries returns the number of split-table entries.
func (t *JoinTable) Entries() int { return len(t.Sites) }

// Lookup returns the joining site for a hashed attribute value.
func (t *JoinTable) Lookup(h uint64) int {
	return t.Sites[h%uint64(len(t.Sites))]
}

// Index returns the raw mod index, used by tests and the Table 1 demo.
func (t *JoinTable) Index(h uint64) int { return int(h % uint64(len(t.Sites))) }

// LookupBatch routes a whole run of hashes at once: sites[i] is the joining
// site for hashes[i]. sites must be at least as long as hashes. The batched
// operator engine uses this columnar form so routing a run touches only the
// hash column; results are identical to calling Lookup per element.
func (t *JoinTable) LookupBatch(hashes []uint64, sites []int) {
	n := uint64(len(t.Sites))
	for i, h := range hashes {
		sites[i] = t.Sites[h%n]
	}
}

// PartTable is a partitioning split table. If JoinSites is nil the table is
// Grace-style (every bucket is stored on disk); otherwise it is Hybrid-style
// and bucket 0 routes directly to the joining processes.
//
// The constructors precompute every entry's (bucket, site) route from the
// Appendix A layout into one flat array, so routing a tuple is one mod and
// one load; a table is immutable once built.
type PartTable struct {
	Buckets   int
	DiskSites []int
	JoinSites []int // non-nil => Hybrid layout

	routes []route   // routes[e] is entry e's (bucket, site)
	inline [16]route // backs routes when they fit, as joining tables' do
}

// route is one split-table entry's destination.
type route struct {
	bucket, site int32
}

// NewGrace builds the partitioning split table for a Grace join.
func NewGrace(buckets int, diskSites []int) (*PartTable, error) {
	if buckets < 1 || len(diskSites) == 0 {
		return nil, fmt.Errorf("split: invalid Grace table (%d buckets, %d disks)", buckets, len(diskSites))
	}
	t := &PartTable{Buckets: buckets, DiskSites: diskSites}
	t.routes = t.routeSpace(buckets * len(diskSites))
	t.addDiskBuckets(0)
	return t, nil
}

// NewHybrid builds the partitioning split table for a Hybrid join.
func NewHybrid(buckets int, diskSites, joinSites []int) (*PartTable, error) {
	if buckets < 1 || len(diskSites) == 0 || len(joinSites) == 0 {
		return nil, fmt.Errorf("split: invalid Hybrid table (%d buckets, %d disks, %d join nodes)",
			buckets, len(diskSites), len(joinSites))
	}
	t := &PartTable{Buckets: buckets, DiskSites: diskSites, JoinSites: joinSites}
	t.routes = t.routeSpace(len(joinSites) + (buckets-1)*len(diskSites))
	for _, s := range joinSites {
		t.routes = append(t.routes, route{0, int32(s)})
	}
	t.addDiskBuckets(1)
	return t, nil
}

// routeSpace returns an empty route slice with room for n entries.
func (t *PartTable) routeSpace(n int) []route {
	if n <= len(t.inline) {
		return t.inline[:0]
	}
	return make([]route, 0, n)
}

// addDiskBuckets appends the entries of disk buckets first..Buckets-1 in
// bucket-major order: every fragment of bucket b, in disk-site order,
// before bucket b+1's.
func (t *PartTable) addDiskBuckets(first int) {
	for b := first; b < t.Buckets; b++ {
		for _, s := range t.DiskSites {
			t.routes = append(t.routes, route{int32(b), int32(s)})
		}
	}
}

// Entries returns the number of split-table entries (which also determines
// how many network packets are needed to ship the table to each producer).
func (t *PartTable) Entries() int { return len(t.routes) }

// Entry returns the split-table entry a hashed attribute value indexes.
// Producers that cache per-entry state (one output stream per entry) key
// it on this index and resolve the entry's route with Route only once.
func (t *PartTable) Entry(h uint64) int { return int(h % uint64(len(t.routes))) }

// Route returns entry e's bucket and destination site (see Lookup).
func (t *PartTable) Route(e int) (bucket, site int) {
	r := t.routes[e]
	return int(r.bucket), int(r.site)
}

// Lookup maps a hashed attribute value to (bucket, destination site).
// For Hybrid tables bucket 0 is the in-memory bucket and the destination is
// a joining process; for every other bucket the destination is the disk site
// storing that bucket fragment.
func (t *PartTable) Lookup(h uint64) (bucket, site int) {
	r := t.routes[h%uint64(len(t.routes))]
	return int(r.bucket), int(r.site)
}

// LookupBatch maps a run of hashes to (bucket, site) pairs: buckets[i] and
// sites[i] receive the routing for hashes[i]. Both output slices must be at
// least as long as hashes; results are identical to per-element Lookup.
func (t *PartTable) LookupBatch(hashes []uint64, buckets, sites []int) {
	routes := t.routes
	n := uint64(len(routes))
	buckets, sites = buckets[:len(hashes)], sites[:len(hashes)]
	for i, h := range hashes {
		r := routes[h%n]
		buckets[i], sites[i] = int(r.bucket), int(r.site)
	}
}

// AnalyzeBuckets is the Optimizer Bucket Analyzer from Appendix A: starting
// from the optimizer's bucket count it returns the smallest count >= it for
// which every joining node can theoretically receive tuples during
// bucket-joining (avoiding the mod-cycle pathology the appendix illustrates
// with 2 disk nodes and 4 joining nodes).
func AnalyzeBuckets(hybrid bool, numDisks, joinNodes, numBuckets int) int {
	if numBuckets < 1 {
		numBuckets = 1
	}
	for {
		var total int
		if hybrid {
			total = joinNodes + (numBuckets-1)*numDisks
		} else {
			total = numBuckets * numDisks
		}

		// No problem with one bucket and no more disks than join nodes.
		if numBuckets == 1 && numDisks <= joinNodes {
			return numBuckets
		}

		i := 1
		for ; i <= total; i++ {
			if (total*i)%joinNodes == 0 {
				break
			}
		}
		if i*numDisks >= joinNodes {
			return numBuckets
		}
		numBuckets++
	}
}

// ReachableJoinSites simulates the bucket-joining redistribution for the
// given table shape and reports, for each on-disk bucket, the set of joining
// split-table indices that can receive tuples. It exists to validate
// AnalyzeBuckets: tuples in fragment entry e carry hash values h ≡ e (mod
// totalEntries), so during joining they map to indices (e + k*totalEntries)
// mod joinNodes.
func ReachableJoinSites(hybrid bool, numDisks, joinNodes, numBuckets int) [][]int {
	var total, firstDiskBucket int
	if hybrid {
		total = joinNodes + (numBuckets-1)*numDisks
		firstDiskBucket = 1
	} else {
		total = numBuckets * numDisks
		firstDiskBucket = 0
	}
	var out [][]int
	for b := firstDiskBucket; b < numBuckets; b++ {
		reach := make([]bool, joinNodes)
		for f := 0; f < numDisks; f++ {
			var e int
			if hybrid {
				e = joinNodes + (b-1)*numDisks + f
			} else {
				e = b*numDisks + f
			}
			for k := 0; k < joinNodes; k++ {
				reach[(e+k*total)%joinNodes] = true
			}
		}
		var sites []int
		for j, r := range reach {
			if r {
				sites = append(sites, j)
			}
		}
		out = append(out, sites)
	}
	return out
}
