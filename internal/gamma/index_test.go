package gamma

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func TestIndexLookupRange(t *testing.T) {
	c := NewLocal(4, nil)
	rel, err := Load(c, "A", wisconsin.Generate(2000, 13), HashPart, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(c, rel, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	before := c.DiskCounters()
	found := map[int32]bool{}
	for site := range rel.Fragments {
		if ix.Tree(site) == nil {
			t.Fatalf("no tree at site %d", site)
		}
		a := &cost.Acct{}
		err := ix.LookupRange(c, site, a, 100, 199, func(tp *tuple.Tuple) bool {
			found[tp.Int(tuple.Unique1)] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if a.Disk == 0 {
			t.Fatal("index lookup charged no disk time")
		}
	}
	if len(found) != 100 {
		t.Fatalf("found %d distinct values, want 100", len(found))
	}
	for v := int32(100); v < 200; v++ {
		if !found[v] {
			t.Fatalf("value %d missing", v)
		}
	}
	diff := c.DiskCounters().Sub(before)
	if diff.PagesRead == 0 {
		t.Fatal("no random page reads recorded")
	}
	// Early stop.
	a := &cost.Acct{}
	n := 0
	_ = ix.LookupRange(c, 0, a, 0, 1999, func(*tuple.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestIndexLookupRangeErrors(t *testing.T) {
	c := NewRemote(2, 2, nil)
	rel, _ := Load(c, "A", wisconsin.Generate(100, 14), RoundRobin, tuple.Unique1)
	ix, _ := BuildIndex(c, rel, tuple.Unique1)
	a := &cost.Acct{}
	// A negative id, both diskless sites and an id past the cluster hold
	// no fragment.
	for _, site := range []int{-1, 2, 3, 99} {
		if err := ix.LookupRange(c, site, a, 0, 1, nil); err == nil {
			t.Fatalf("lookup at site %d should error", site)
		}
	}
}

func TestDiskCountersAggregates(t *testing.T) {
	c := NewLocal(3, nil)
	if got := c.DiskCounters(); got.PagesWritten != 0 {
		t.Fatalf("fresh cluster counters = %+v", got)
	}
	if _, err := Load(c, "A", wisconsin.Generate(300, 15), RoundRobin, tuple.Unique1); err != nil {
		t.Fatal(err)
	}
	if got := c.DiskCounters(); got.PagesWritten < 9 {
		t.Fatalf("load wrote %d pages across disks, want >= 9", got.PagesWritten)
	}
}
