package split

import (
	"testing"
)

// FuzzSplitTable drives the joining split table with arbitrary attribute
// values and hash seeds and checks the Appendix A contract: the table is
// indexed by applying the mod function to the hashed attribute, every lookup
// lands on exactly one of the table's processes, and the mapping is a pure
// function of (value, seed, table shape).
func FuzzSplitTable(f *testing.F) {
	f.Add(int32(0), uint64(0), uint8(1))
	f.Add(int32(10000), uint64(0), uint8(8))
	f.Add(int32(-1), uint64(1), uint8(16))
	f.Add(int32(999999), uint64(0x9E3779B97F4A7C15), uint8(100))
	f.Fuzz(func(t *testing.T, v int32, seed uint64, n uint8) {
		if n == 0 {
			return
		}
		sites := make([]int, n)
		for i := range sites {
			sites[i] = 100 + i // distinct site ids, deliberately not 0-based
		}
		tab := &JoinTable{Sites: sites}
		if tab.Entries() != int(n) {
			t.Fatalf("Entries() = %d, want %d", tab.Entries(), n)
		}

		h := Hash(v, seed)
		if h2 := Hash(v, seed); h2 != h {
			t.Fatalf("Hash not deterministic: %d vs %d", h, h2)
		}
		if seed == 0 && h != uint64(uint32(v)) {
			t.Fatalf("seed-0 hash must be identity on the 32-bit value: Hash(%d) = %d", v, h)
		}

		idx := tab.Index(h)
		if idx != int(h%uint64(n)) {
			t.Fatalf("Index(%d) = %d, want mod-function index %d", h, idx, h%uint64(n))
		}
		site := tab.Lookup(h)
		if site != sites[idx] {
			t.Fatalf("Lookup(%d) = site %d, want Sites[%d] = %d", h, site, idx, sites[idx])
		}
		// Exactly one entry owns the tuple: the mod index is unique by
		// construction, so it suffices that it is in range.
		if idx < 0 || idx >= int(n) {
			t.Fatalf("index %d out of range [0,%d)", idx, n)
		}
	})
}

// FuzzHashPartition drives Grace- and Hybrid-style partitioning split tables
// with arbitrary shapes and hashes, checking that every tuple routes to
// exactly one (bucket, site) cell, that the cell agrees with the Appendix A
// bucket-major layout, and that Hybrid's first joinNodes entries route
// bucket 0 to the joining processes. Entry and Route, and LookupBatch over
// the hash and its neighbours, must agree with Lookup.
func FuzzHashPartition(f *testing.F) {
	f.Add(int32(0), uint64(0), uint8(1), uint8(1), uint8(0))
	f.Add(int32(10000), uint64(0), uint8(10), uint8(8), uint8(0))
	f.Add(int32(-5), uint64(3), uint8(10), uint8(8), uint8(8))
	f.Add(int32(777), uint64(0), uint8(2), uint8(2), uint8(4))
	f.Add(int32(123456), uint64(42), uint8(33), uint8(17), uint8(9))
	f.Add(int32(4321), uint64(0), uint8(8), uint8(8), uint8(8)) // Hybrid: 8 join sites + 7 x 8 disk entries
	f.Fuzz(func(t *testing.T, v int32, seed uint64, buckets, disks, joins uint8) {
		if buckets == 0 || disks == 0 {
			return
		}
		diskSites := make([]int, disks)
		for i := range diskSites {
			diskSites[i] = 200 + i
		}

		var (
			tab *PartTable
			err error
		)
		hybrid := joins > 0
		if hybrid {
			joinSites := make([]int, joins)
			for i := range joinSites {
				joinSites[i] = 500 + i
			}
			tab, err = NewHybrid(int(buckets), diskSites, joinSites)
		} else {
			tab, err = NewGrace(int(buckets), diskSites)
		}
		if err != nil {
			t.Fatalf("constructor rejected a valid shape: %v", err)
		}

		wantEntries := int(buckets) * int(disks)
		if hybrid {
			wantEntries = int(joins) + (int(buckets)-1)*int(disks)
		}
		if tab.Entries() != wantEntries {
			t.Fatalf("Entries() = %d, want %d", tab.Entries(), wantEntries)
		}

		h := Hash(v, seed)
		bucket, site := tab.Lookup(h)
		b2, s2 := tab.Lookup(h)
		if bucket != b2 || site != s2 {
			t.Fatalf("Lookup not deterministic: (%d,%d) vs (%d,%d)", bucket, site, b2, s2)
		}

		if e := tab.Entry(h); e < 0 || e >= wantEntries {
			t.Fatalf("Entry(%d) = %d, out of range [0,%d)", h, e, wantEntries)
		} else if b, s := tab.Route(e); b != bucket || s != site {
			t.Fatalf("Route(Entry(%d)) = (%d,%d), Lookup (%d,%d)", h, b, s, bucket, site)
		}
		hashes := []uint64{h, h + 1, h + uint64(wantEntries), h ^ 1<<63}
		bs, ss := make([]int, len(hashes)), make([]int, len(hashes))
		tab.LookupBatch(hashes, bs, ss)
		for i, hh := range hashes {
			if b, s := tab.Lookup(hh); bs[i] != b || ss[i] != s {
				t.Fatalf("LookupBatch[%d] (hash %d) = (%d,%d), Lookup (%d,%d)", i, hh, bs[i], ss[i], b, s)
			}
		}

		// The tuple lands in exactly one bucket, in range.
		if bucket < 0 || bucket >= int(buckets) {
			t.Fatalf("bucket %d out of range [0,%d)", bucket, buckets)
		}

		// Recompute the Appendix A layout by hand from the mod index and
		// compare cell for cell.
		e := int(h % uint64(wantEntries))
		if hybrid {
			if e < int(joins) {
				if bucket != 0 {
					t.Fatalf("entry %d < joinNodes must be bucket 0, got %d", e, bucket)
				}
				if site != 500+e {
					t.Fatalf("bucket-0 entry %d routed to site %d, want joining process %d", e, site, 500+e)
				}
			} else {
				d := e - int(joins)
				wantBucket := 1 + d/int(disks)
				wantSite := 200 + d%int(disks)
				if bucket != wantBucket || site != wantSite {
					t.Fatalf("hybrid entry %d -> (%d,%d), want (%d,%d)", e, bucket, site, wantBucket, wantSite)
				}
			}
		} else {
			wantBucket := e / int(disks)
			wantSite := 200 + e%int(disks)
			if bucket != wantBucket || site != wantSite {
				t.Fatalf("grace entry %d -> (%d,%d), want (%d,%d)", e, bucket, site, wantBucket, wantSite)
			}
		}

		// Disjoint and complete: walking every possible entry index hits
		// every (bucket, fragment) cell exactly once. Bound the walk so the
		// fuzzer cannot make it quadratic.
		if wantEntries <= 1<<12 {
			seen := make(map[[2]int]int, wantEntries)
			for i := 0; i < wantEntries; i++ {
				b, s := tab.Lookup(uint64(i))
				seen[[2]int{b, s}]++
			}
			if hybrid {
				// Bucket 0 cells may repeat when several joining processes
				// share a site id; here ids are distinct, so all cells are
				// singletons.
				for cell, n := range seen {
					if n != 1 {
						t.Fatalf("cell %v hit %d times, want 1", cell, n)
					}
				}
			} else {
				if len(seen) != wantEntries {
					t.Fatalf("%d distinct cells, want %d", len(seen), wantEntries)
				}
			}
		}
	})
}
