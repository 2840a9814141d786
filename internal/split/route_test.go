package split

import (
	"testing"

	"gammajoin/internal/xrand"
)

// appendixALookup is the Appendix A arithmetic the flat route table
// replaced — three integer divisions per tuple — kept as the reference that
// Lookup and LookupBatch must equal entry for entry.
func appendixALookup(t *PartTable, h uint64) (bucket, site int) {
	disks := len(t.DiskSites)
	if t.JoinSites != nil {
		j := len(t.JoinSites)
		e := int(h % uint64(j+(t.Buckets-1)*disks))
		if e < j {
			return 0, t.JoinSites[e]
		}
		e -= j
		return 1 + e/disks, t.DiskSites[e%disks]
	}
	e := int(h % uint64(t.Buckets*disks))
	return e / disks, t.DiskSites[e%disks]
}

// checkAgainstReference compares Lookup, Route and LookupBatch with the
// reference on every entry of the table, both at the entry index itself and
// at a large hash congruent to it.
func checkAgainstReference(t *testing.T, tab *PartTable, src *xrand.Source) {
	t.Helper()
	n := tab.Entries()
	hashes := make([]uint64, 0, 2*n)
	for e := 0; e < n; e++ {
		hashes = append(hashes, uint64(e), uint64(e)+uint64(n)*(src.Uint64()>>20))
	}
	buckets, sites := make([]int, len(hashes)), make([]int, len(hashes))
	tab.LookupBatch(hashes, buckets, sites)
	for i, h := range hashes {
		wb, ws := appendixALookup(tab, h)
		if b, s := tab.Lookup(h); b != wb || s != ws {
			t.Fatalf("%d buckets, disks %v, joins %v: Lookup(%d) = (%d,%d), reference (%d,%d)",
				tab.Buckets, tab.DiskSites, tab.JoinSites, h, b, s, wb, ws)
		}
		if b, s := tab.Route(tab.Entry(h)); b != wb || s != ws {
			t.Fatalf("%d buckets, disks %v, joins %v: Route(Entry(%d)) = (%d,%d), reference (%d,%d)",
				tab.Buckets, tab.DiskSites, tab.JoinSites, h, b, s, wb, ws)
		}
		if buckets[i] != wb || sites[i] != ws {
			t.Fatalf("%d buckets, disks %v, joins %v: LookupBatch[%d] (hash %d) = (%d,%d), reference (%d,%d)",
				tab.Buckets, tab.DiskSites, tab.JoinSites, i, h, buckets[i], sites[i], wb, ws)
		}
	}
}

// siteIDs returns n distinct, deliberately not 0-based site ids.
func siteIDs(base, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = base + i
	}
	return s
}

// TestRouteTableMatchesAppendixA checks the precomputed route table against
// the three-division reference on every entry of every Grace and Hybrid
// table over 1–16 disk sites, 1–16 join sites and 1–64 buckets.
func TestRouteTableMatchesAppendixA(t *testing.T) {
	src := xrand.New(1989)
	for disks := 1; disks <= 16; disks++ {
		diskSites := siteIDs(100, disks)
		for buckets := 1; buckets <= 64; buckets++ {
			g, err := NewGrace(buckets, diskSites)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, g, src)
			for joins := 1; joins <= 16; joins++ {
				h, err := NewHybrid(buckets, diskSites, siteIDs(300, joins))
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, h, src)
			}
		}
	}
}

// BenchmarkPartTableLookup times routing through the partitioning split
// tables of the paper's 8-disk configuration: Grace at 8 buckets × 8 disks
// (64 entries) and Hybrid at 8 join sites plus 7 × 8 disk entries. Each
// iteration routes 4,096 hashes one Lookup at a time and then as one
// LookupBatch. The hashes are what a join's first level routes on: the
// seed-0 (identity) hashes of Wisconsin unique1 values, here a shuffled
// run of them so the entries do not come in order. It uses only Hash, the
// constructors, Lookup and LookupBatch, so it runs unchanged on earlier
// versions of the table for paired comparisons.
func BenchmarkPartTableLookup(b *testing.B) {
	disks := siteIDs(0, 8)
	grace, _ := NewGrace(8, disks)
	hybrid, _ := NewHybrid(8, disks, siteIDs(8, 8))
	const n = 4096
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = Hash(int32(uint32(i)*2654435761%100000), 0)
	}
	buckets, sites := make([]int, n), make([]int, n)
	for _, tc := range []struct {
		name string
		tab  *PartTable
	}{{"grace-8x8", grace}, {"hybrid-8+7x8", hybrid}} {
		b.Run(tc.name+"/Lookup", func(b *testing.B) {
			b.ReportAllocs()
			var sink int
			for k := 0; k < b.N; k++ {
				for _, h := range hashes {
					bk, s := tc.tab.Lookup(h)
					sink += bk + s
				}
			}
			if sink < 0 {
				b.Fatal("negative route")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
		})
		b.Run(tc.name+"/LookupBatch", func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				tc.tab.LookupBatch(hashes, buckets, sites)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
		})
	}
}
