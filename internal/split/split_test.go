package split

import (
	"testing"
	"testing/quick"

	"gammajoin/internal/xrand"
)

func TestHashDeterministicAndSeedSensitive(t *testing.T) {
	if Hash(42, 0) != Hash(42, 0) {
		t.Fatal("Hash not deterministic")
	}
	if Hash(42, 0) == Hash(42, 1) {
		t.Fatal("Hash insensitive to seed")
	}
	if Hash(42, 0) == Hash(43, 0) {
		t.Fatal("Hash insensitive to value")
	}
}

func TestJoinTable(t *testing.T) {
	jt := &JoinTable{Sites: []int{10, 11, 12, 13}}
	if jt.Entries() != 4 {
		t.Fatalf("Entries = %d", jt.Entries())
	}
	for h := uint64(0); h < 100; h++ {
		want := []int{10, 11, 12, 13}[h%4]
		if got := jt.Lookup(h); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", h, got, want)
		}
		if jt.Index(h) != int(h%4) {
			t.Fatalf("Index(%d) = %d", h, jt.Index(h))
		}
	}
}

// Table 1 of Section 4.1: a 3-bucket Grace join with 4 disk nodes maps
// hashed value v to bucket v mod 12 / 4 and disk v mod 12 mod 4, so e.g.
// values 0,12,24 land in bucket 1 on disk 1 and values 8,20,32 in bucket 3
// on disk 1.
func TestGraceTableMatchesPaperTable1(t *testing.T) {
	pt, err := NewGrace(3, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Entries() != 12 {
		t.Fatalf("Entries = %d, want 12", pt.Entries())
	}
	cases := []struct {
		h            uint64
		bucket, site int
	}{
		{0, 0, 0}, {12, 0, 0}, {24, 0, 0},
		{1, 0, 1}, {13, 0, 1},
		{3, 0, 3}, {15, 0, 3},
		{4, 1, 0}, {16, 1, 0},
		{7, 1, 3}, {19, 1, 3},
		{8, 2, 0}, {20, 2, 0},
		{11, 2, 3}, {23, 2, 3},
	}
	for _, c := range cases {
		b, s := pt.Lookup(c.h)
		if b != c.bucket || s != c.site {
			t.Fatalf("Lookup(%d) = (%d,%d), want (%d,%d)", c.h, b, s, c.bucket, c.site)
		}
	}
}

// Appendix A Table 2: 3-bucket Hybrid join, disk nodes {1,2}, join
// processes on nodes {3,4}.
func TestHybridTableMatchesAppendixTable2(t *testing.T) {
	pt, err := NewHybrid(3, []int{1, 2}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Entries() != 6 {
		t.Fatalf("Entries = %d, want 6", pt.Entries())
	}
	wants := []struct{ bucket, site int }{
		{0, 3}, {0, 4}, // bucket 1 -> joining processes
		{1, 1}, {1, 2}, // bucket 2 -> disks
		{2, 1}, {2, 2}, // bucket 3 -> disks
	}
	for e, w := range wants {
		b, s := pt.Lookup(uint64(e))
		if b != w.bucket || s != w.site {
			t.Fatalf("entry %d = (%d,%d), want (%d,%d)", e, b, s, w.bucket, w.site)
		}
	}
}

// The HPJA short-circuit property (Section 4.1): when a relation is loaded
// by hashing on the join attribute across D disks, every tuple stored at
// disk d satisfies h mod D == d, and the partitioning split table maps it
// back to disk d for every bucket.
func TestHPJAShortCircuitEmerges(t *testing.T) {
	disks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for buckets := 1; buckets <= 8; buckets++ {
		pt, err := NewGrace(buckets, disks)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(uint64(buckets))
		for i := 0; i < 2000; i++ {
			h := r.Uint64()
			loadedAt := int(h % 8)
			_, site := pt.Lookup(h)
			if site != loadedAt {
				t.Fatalf("buckets=%d h=%d loaded at %d but partitioned to %d",
					buckets, h, loadedAt, site)
			}
		}
	}
}

// The same property for Hybrid in the local configuration (join sites ==
// disk sites): bucket-0 tuples short-circuit too.
func TestHPJAShortCircuitHybridLocal(t *testing.T) {
	sites := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for buckets := 1; buckets <= 8; buckets++ {
		pt, err := NewHybrid(buckets, sites, sites)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(uint64(buckets) * 77)
		for i := 0; i < 2000; i++ {
			h := r.Uint64()
			_, site := pt.Lookup(h)
			if site != int(h%8) {
				t.Fatalf("buckets=%d: tuple did not short-circuit", buckets)
			}
		}
	}
}

// Grace bucket-joining locality (Section 4.1): in the local configuration,
// a tuple in fragment f of any bucket maps back to site f under the joining
// split table, so the bucket-joining phase short-circuits all tuples even
// for non-HPJA joins.
func TestGraceJoinPhaseLocality(t *testing.T) {
	disks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	jt := &JoinTable{Sites: disks}
	pt, _ := NewGrace(5, disks)
	r := xrand.New(99)
	for i := 0; i < 5000; i++ {
		h := r.Uint64()
		_, fragSite := pt.Lookup(h)
		if joinSite := jt.Lookup(h); joinSite != fragSite {
			t.Fatalf("tuple stored at %d joins at %d", fragSite, joinSite)
		}
	}
}

func TestAnalyzeBucketsPaperExample(t *testing.T) {
	// Appendix A: 2 disk nodes, 4 joining nodes, Hybrid starting at 3
	// buckets -> analyzer returns 4.
	if got := AnalyzeBuckets(true, 2, 4, 3); got != 4 {
		t.Fatalf("AnalyzeBuckets(hybrid, 2 disks, 4 join, 3) = %d, want 4", got)
	}
}

func TestAnalyzeBucketsLocalIdentity(t *testing.T) {
	// In the local configuration the analyzer never needs extra buckets.
	for n := 1; n <= 10; n++ {
		if got := AnalyzeBuckets(false, 8, 8, n); got != n {
			t.Fatalf("grace local: AnalyzeBuckets(8,8,%d) = %d", n, got)
		}
		if got := AnalyzeBuckets(true, 8, 8, n); got != n {
			t.Fatalf("hybrid local: AnalyzeBuckets(8,8,%d) = %d", n, got)
		}
	}
}

// allJoinSitesReachable reports whether every joining node can receive
// tuples for every on-disk bucket: the oracle of the property test below.
func allJoinSitesReachable(hybrid bool, numDisks, joinNodes, numBuckets int) bool {
	for _, sites := range ReachableJoinSites(hybrid, numDisks, joinNodes, numBuckets) {
		if len(sites) != joinNodes {
			return false
		}
	}
	return true
}

func TestAnalyzeBucketsGuaranteesReachability(t *testing.T) {
	f := func(hybridRaw bool, dRaw, jRaw, nRaw uint8) bool {
		numDisks := int(dRaw)%8 + 1
		joinNodes := int(jRaw)%8 + 1
		start := int(nRaw)%6 + 1
		got := AnalyzeBuckets(hybridRaw, numDisks, joinNodes, start)
		if got < start {
			return false
		}
		// One-bucket special case: nothing stored on disk for Hybrid;
		// Grace one-bucket with numDisks <= joinNodes is also fine by
		// the paper's early-out.
		if got == 1 {
			return true
		}
		return allJoinSitesReachable(hybridRaw, numDisks, joinNodes, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReachableJoinSitesPathology(t *testing.T) {
	// Appendix A Table 4: 3-bucket Hybrid, 2 disks, 4 join nodes — disk
	// buckets can only reach join sites 0 and 1.
	reach := ReachableJoinSites(true, 2, 4, 3)
	if len(reach) != 2 {
		t.Fatalf("expected 2 disk buckets, got %d", len(reach))
	}
	for _, sites := range reach {
		if len(sites) != 2 {
			t.Fatalf("pathological config should reach exactly 2 sites, got %v", sites)
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewGrace(0, []int{0}); err == nil {
		t.Fatal("NewGrace with 0 buckets should error")
	}
	if _, err := NewGrace(1, nil); err == nil {
		t.Fatal("NewGrace with no disks should error")
	}
	if _, err := NewHybrid(2, []int{0}, nil); err == nil {
		t.Fatal("NewHybrid with no join sites should error")
	}
}

func TestLookupCoversAllEntries(t *testing.T) {
	pt, _ := NewHybrid(4, []int{0, 1, 2}, []int{5, 6})
	seenBuckets := map[int]bool{}
	for e := 0; e < pt.Entries(); e++ {
		b, s := pt.Lookup(uint64(e))
		seenBuckets[b] = true
		if s < 0 {
			t.Fatal("negative site")
		}
	}
	if len(seenBuckets) != 4 {
		t.Fatalf("entries cover %d buckets, want 4", len(seenBuckets))
	}
}
