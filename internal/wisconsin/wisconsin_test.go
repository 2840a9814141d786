package wisconsin

import (
	"testing"

	"gammajoin/internal/tuple"
)

func TestGenerateUniqueAttrs(t *testing.T) {
	const n = 10000
	rel := Generate(n, 1)
	if len(rel) != n {
		t.Fatalf("len = %d", len(rel))
	}
	seen1 := make([]bool, n)
	seen2 := make([]bool, n)
	for i := range rel {
		u1 := rel[i].Int(tuple.Unique1)
		u2 := rel[i].Int(tuple.Unique2)
		if u1 < 0 || u1 >= n || seen1[u1] {
			t.Fatalf("unique1 not a permutation: %d", u1)
		}
		if u2 < 0 || u2 >= n || seen2[u2] {
			t.Fatalf("unique2 not a permutation: %d", u2)
		}
		seen1[u1], seen2[u2] = true, true
	}
}

func TestDerivedAttrs(t *testing.T) {
	rel := Generate(1000, 2)
	for i := range rel {
		u1 := rel[i].Int(tuple.Unique1)
		checks := []struct {
			attr int
			want int32
		}{
			{tuple.Two, u1 % 2},
			{tuple.Four, u1 % 4},
			{tuple.Ten, u1 % 10},
			{tuple.Twenty, u1 % 20},
			{tuple.OnePercent, u1 % 100},
			{tuple.TenPercent, u1 % 10},
			{tuple.TwentyPercent, u1 % 5},
			{tuple.FiftyPercent, u1 % 2},
			{tuple.EvenOnePercent, (u1 % 100) * 2},
			{tuple.OddOnePercent, (u1%100)*2 + 1},
		}
		for _, c := range checks {
			if rel[i].Int(c.attr) != c.want {
				t.Fatalf("attr %d of tuple with unique1=%d is %d, want %d",
					c.attr, u1, rel[i].Int(c.attr), c.want)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, 7)
	b := Generate(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Generate not deterministic")
		}
	}
	c := Generate(100, 8)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical relations")
	}
}

func TestBprime(t *testing.T) {
	rel := Generate(100000, 3)
	bp := Bprime(rel, 10000)
	if len(bp) != 10000 {
		t.Fatalf("Bprime has %d tuples, want 10000", len(bp))
	}
	for i := range bp {
		if bp[i].Int(tuple.Unique1) >= 10000 {
			t.Fatal("Bprime contains unique1 >= 10000")
		}
	}
}

func TestSkewedNormalAttr(t *testing.T) {
	rel := GenerateSkewed(100000, 4)
	inPeak := 0
	maxV := int32(0)
	for i := range rel {
		v := rel[i].Int(tuple.Normal)
		if v < 0 || v > DomainMax {
			t.Fatalf("normal attr out of domain: %d", v)
		}
		if v >= 50000 && v <= 50243 {
			inPeak++
		}
		if v > maxV {
			maxV = v
		}
	}
	// Paper: 12,500 of 100,000 tuples fell in [50000, 50243] and the max
	// value was about 53,071 (~4 sigma).
	if inPeak < 11000 || inPeak > 14000 {
		t.Fatalf("%d tuples in peak range, want ~12500", inPeak)
	}
	if maxV > 55000 {
		t.Fatalf("max normal value %d implausibly large", maxV)
	}
}

func TestSkewedDuplicationBounded(t *testing.T) {
	rel := GenerateSkewed(100000, 5)
	counts := map[int32]int{}
	for i := range rel {
		counts[rel[i].Int(tuple.Normal)]++
	}
	maxDup := 0
	for _, c := range counts {
		if c > maxDup {
			maxDup = c
		}
	}
	// Paper: "no single attribute value occurred in more than 77 tuples".
	if maxDup < 40 || maxDup > 110 {
		t.Fatalf("max duplication %d, want ~50-80", maxDup)
	}
}

func TestRandomSubset(t *testing.T) {
	rel := Generate(1000, 6)
	sub := RandomSubset(rel, 100, 9)
	if len(sub) != 100 {
		t.Fatalf("subset size %d", len(sub))
	}
	seen := map[int32]bool{}
	for i := range sub {
		u1 := sub[i].Int(tuple.Unique1)
		if seen[u1] {
			t.Fatal("subset contains duplicates")
		}
		seen[u1] = true
	}
	if got := RandomSubset(rel, 5000, 9); len(got) != 1000 {
		t.Fatalf("oversized subset should clamp, got %d", len(got))
	}
}

func TestStringsFilled(t *testing.T) {
	rel := Generate(10, 1)
	for i := range rel {
		for s := 0; s < tuple.NumStrs; s++ {
			for _, b := range rel[i].Str(s) {
				if b == 0 {
					t.Fatal("string attribute contains zero byte")
				}
			}
		}
	}
}
