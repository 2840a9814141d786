package gammajoin

import (
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	m := NewMachine(WithDisks(8))
	outer := Wisconsin(4000, 1)
	inner := Bprime(outer, 400)
	a, err := m.Load("A", outer, ByHash, "unique1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Load("Bprime", inner, ByHash, "unique1")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		rep, err := m.Join(b, a, "unique1", "unique1", JoinOptions{
			Algorithm:   alg,
			MemoryRatio: 0.5,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rep.ResultCount != 400 {
			t.Errorf("%v: result count %d, want 400", alg, rep.ResultCount)
		}
		if rep.Response <= 0 {
			t.Errorf("%v: no simulated time", alg)
		}
	}
}

func TestRemoteMachine(t *testing.T) {
	m := NewMachine(WithDisks(4), WithDiskless(4))
	if len(m.DiskSites()) != 4 || len(m.DisklessSites()) != 4 {
		t.Fatalf("sites: %v / %v", m.DiskSites(), m.DisklessSites())
	}
	outer := Wisconsin(1000, 2)
	inner := Bprime(outer, 100)
	a, _ := m.Load("A", outer, ByHash, "unique1")
	b, _ := m.Load("B", inner, ByHash, "unique1")
	rep, err := m.Join(b, a, "unique1", "unique1", JoinOptions{Algorithm: Hybrid, MemoryRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultCount != 100 {
		t.Fatalf("count = %d", rep.ResultCount)
	}
}

func TestJoinOptionsValidation(t *testing.T) {
	m := NewMachine(WithDisks(2))
	outer := Wisconsin(100, 3)
	a, _ := m.Load("A", outer, ByRoundRobin, "unique1")
	if _, err := m.Join(a, a, "unique1", "unique1", JoinOptions{Algorithm: Hybrid}); err == nil {
		t.Fatal("missing memory spec should error")
	}
	if _, err := m.Join(a, a, "nope", "unique1", JoinOptions{MemoryRatio: 1}); err == nil {
		t.Fatal("bad attribute name should error")
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1), 1e300} {
		if _, err := m.Join(a, a, "unique1", "unique1", JoinOptions{Algorithm: Hybrid, MemoryRatio: ratio}); err == nil {
			t.Errorf("memory ratio %g should error", ratio)
		}
	}
	if _, err := m.Join(a, a, "unique1", "unique1", JoinOptions{Algorithm: Hybrid, MemoryRatio: 1, ForceBuckets: -3}); err == nil {
		t.Fatal("negative bucket count should error")
	}
	if _, err := m.Load("B", outer, ByHash, "bogus"); err == nil {
		t.Fatal("bad partition attribute should error")
	}
}

func TestCollectResultsAndAttr(t *testing.T) {
	m := NewMachine(WithDisks(2))
	outer := Wisconsin(500, 4)
	inner := Bprime(outer, 50)
	a, _ := m.Load("A", outer, ByHash, "unique1")
	b, _ := m.Load("B", inner, ByHash, "unique1")
	rep, err := m.Join(b, a, "unique1", "unique1", JoinOptions{
		Algorithm:      Grace,
		MemoryRatio:    0.4,
		CollectResults: true,
		NoStore:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 50 {
		t.Fatalf("collected %d results", len(rep.Results))
	}
	for i := range rep.Results {
		iv, err := Attr(&rep.Results[i].Inner, "unique1")
		if err != nil {
			t.Fatal(err)
		}
		ov, _ := Attr(&rep.Results[i].Outer, "unique1")
		if iv != ov {
			t.Fatalf("joined pair mismatch: %d vs %d", iv, ov)
		}
	}
	if _, err := Attr(&rep.Results[0].Inner, "bogus"); err == nil {
		t.Fatal("Attr with bad name should error")
	}
}

func TestCostParamsOption(t *testing.T) {
	p := DefaultCostParams()
	p.MIPS = p.MIPS * 2 // twice as fast a CPU
	fast := NewMachine(WithDisks(4), WithCostParams(p))
	slow := NewMachine(WithDisks(4))
	run := func(m *Machine) int64 {
		outer := Wisconsin(2000, 5)
		inner := Bprime(outer, 200)
		a, _ := m.Load("A", outer, ByHash, "unique1")
		b, _ := m.Load("B", inner, ByHash, "unique1")
		rep, err := m.Join(b, a, "unique1", "unique1", JoinOptions{Algorithm: Hybrid, MemoryRatio: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Response.Nanoseconds()
	}
	if f, s := run(fast), run(slow); f >= s {
		t.Fatalf("doubling MIPS did not speed up the join: %d vs %d", f, s)
	}
}

func TestSkewedGeneratorExported(t *testing.T) {
	rel := WisconsinSkewed(1000, 6)
	sub := RandomSubset(rel, 100, 7)
	if len(sub) != 100 {
		t.Fatalf("subset %d", len(sub))
	}
}
