package core

import (
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func TestRunUpdate(t *testing.T) {
	c, rel, _ := opsFixture(t)
	rep, err := RunUpdate(c, UpdateSpec{
		Rel:     rel,
		Pred:    pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 100},
		SetAttr: tuple.FiftyPercent,
		SetVal:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 100 {
		t.Fatalf("updated %d rows, want 100", rep.Rows)
	}
	if rep.Disk.PagesWritten == 0 {
		t.Fatal("update wrote no pages")
	}
	// Verify in place via a selection.
	verify, _, err := RunSelect(c, SelectSpec{
		Rel:  rel,
		Pred: pred.Cmp{Attr: tuple.FiftyPercent, Op: pred.EQ, Val: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if verify.Rows != 100 {
		t.Fatalf("verification found %d rows, want 100", verify.Rows)
	}
}

func TestRunUpdateGuardsPartitioningAttr(t *testing.T) {
	c, rel, _ := opsFixture(t) // hash-partitioned on unique1
	if _, err := RunUpdate(c, UpdateSpec{Rel: rel, SetAttr: tuple.Unique1, SetVal: 1}); err == nil {
		t.Fatal("updating the hash-partitioning attribute in place must be rejected")
	}
	if _, err := RunUpdate(c, UpdateSpec{}); err == nil {
		t.Fatal("missing relation should error")
	}
	if _, err := RunUpdate(c, UpdateSpec{Rel: rel, SetAttr: 99}); err == nil {
		t.Fatal("bad attribute should error")
	}
	// Round-robin relations may update any attribute.
	rr, _ := gamma.Load(c, "RR", wisconsin.Generate(100, 1), gamma.RoundRobin, tuple.Unique1)
	if _, err := RunUpdate(c, UpdateSpec{Rel: rr, SetAttr: tuple.Unique1, SetVal: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPredRange(t *testing.T) {
	cases := []struct {
		p      pred.Pred
		lo, hi int32
		ok     bool
	}{
		{pred.Cmp{Attr: 0, Op: pred.EQ, Val: 5}, 5, 5, true},
		{pred.Cmp{Attr: 0, Op: pred.LT, Val: 10}, -1 << 31, 9, true},
		{pred.Cmp{Attr: 0, Op: pred.GE, Val: 3}, 3, 1<<31 - 1, true},
		{pred.Range(0, 10, 20), 10, 19, true},
		{pred.True{}, -1 << 31, 1<<31 - 1, true},
		{pred.Cmp{Attr: 1, Op: pred.EQ, Val: 5}, 0, 0, false},          // wrong attr
		{pred.Cmp{Attr: 0, Op: pred.NE, Val: 5}, 0, 0, false},          // not a range
		{pred.Or{pred.Cmp{Attr: 0, Op: pred.EQ, Val: 1}}, 0, 0, false}, // disjunction
	}
	for i, c := range cases {
		lo, hi, ok := predRange(c.p, 0)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("case %d: predRange = (%d,%d,%v), want (%d,%d,%v)",
				i, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

func TestIndexSelect(t *testing.T) {
	c, rel, _ := opsFixture(t)
	ix, err := gamma.BuildIndex(c, rel, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	rep, rows, err := RunIndexSelect(c, ix, pred.Range(tuple.Unique1, 500, 600), true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 100 || len(rows) != 100 {
		t.Fatalf("index selection found %d rows (collected %d), want 100", rep.Rows, len(rows))
	}
	for i := range rows {
		v := rows[i].Int(tuple.Unique1)
		if v < 500 || v >= 600 {
			t.Fatalf("index selection returned out-of-range tuple %d", v)
		}
	}
}

func TestIndexSelectCheaperThanScanWhenSelective(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	tuples := wisconsin.Generate(20000, 99)
	rel, _ := gamma.Load(c, "A", tuples, gamma.HashPart, tuple.Unique1)
	ix, err := gamma.BuildIndex(c, rel, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	p := pred.Range(tuple.Unique1, 1000, 1020) // 0.1% selectivity
	scan, _, err := RunSelect(c, SelectSpec{Rel: rel, Pred: p})
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := RunIndexSelect(c, ix, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Rows != scan.Rows {
		t.Fatalf("index (%d) and scan (%d) disagree", idx.Rows, scan.Rows)
	}
	if idx.Response >= scan.Response {
		t.Fatalf("selective index retrieval (%v) should beat a full scan (%v)",
			idx.Response, scan.Response)
	}
}

func TestIndexSelectValidation(t *testing.T) {
	c, rel, _ := opsFixture(t)
	ix, _ := gamma.BuildIndex(c, rel, tuple.Unique1)
	if _, _, err := RunIndexSelect(c, nil, pred.True{}, false); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, _, err := RunIndexSelect(c, ix, nil, false); err == nil {
		t.Fatal("nil predicate accepted")
	}
	if _, _, err := RunIndexSelect(c, ix, pred.Cmp{Attr: tuple.Unique2, Op: pred.EQ, Val: 1}, false); err == nil {
		t.Fatal("non-indexed predicate accepted")
	}
	if _, err := gamma.BuildIndex(c, nil, 0); err == nil {
		t.Fatal("BuildIndex without relation accepted")
	}
	if _, err := gamma.BuildIndex(c, rel, -1); err == nil {
		t.Fatal("BuildIndex with bad attribute accepted")
	}
}

func TestIndexTreeValid(t *testing.T) {
	c, rel, _ := opsFixture(t)
	ix, _ := gamma.BuildIndex(c, rel, tuple.OnePercent) // duplicate-heavy
	total := 0
	for site := range rel.Fragments {
		bt := ix.Tree(site)
		if err := bt.Validate(); err != nil {
			t.Fatal(err)
		}
		total += bt.Len()
	}
	if int64(total) != rel.N {
		t.Fatalf("index entries %d != relation cardinality %d", total, rel.N)
	}
}
