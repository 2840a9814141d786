package gammajoin

import (
	"math"
	"strings"
	"testing"
)

func TestQueryAPI(t *testing.T) {
	m := NewMachine(WithDisks(4))
	outer := Wisconsin(2000, 31)
	inner := Wisconsin(2000, 32)
	a, _ := m.Load("A", outer, ByHash, "unique1")
	b, _ := m.Load("B", inner, ByHash, "unique1")

	w, _ := Where("unique1", "<", 200)
	qp, err := m.PrepareQuery(QuerySpec{
		Inner:            b,
		Outer:            a,
		InnerWhere:       w,
		On:               "unique1",
		InnerSelectivity: 0.1,
		MemoryRatio:      0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if qp.Algorithm() != Hybrid {
		t.Fatalf("algorithm = %v", qp.Algorithm())
	}
	if !strings.Contains(qp.Explain(), "JOIN [hybrid]") {
		t.Fatalf("Explain:\n%s", qp.Explain())
	}
	rep, err := qp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultCount != 200 {
		t.Fatalf("count = %d", rep.ResultCount)
	}

	// One-shot with a forced algorithm and different attributes per side.
	alg := SortMerge
	rep, err = m.Query(QuerySpec{
		Inner:   b,
		Outer:   a,
		On:      "unique1",
		OuterOn: "unique2",
		Force:   &alg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alg != SortMerge || rep.ResultCount != 2000 {
		t.Fatalf("alg=%v count=%d", rep.Alg, rep.ResultCount)
	}

	if _, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "zzz"}); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if _, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "unique1", OuterOn: "zzz"}); err == nil {
		t.Fatal("bad outer attribute accepted")
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1), 1e300} {
		_, err := m.PrepareQuery(QuerySpec{Inner: b, Outer: a, On: "unique1", MemoryRatio: ratio})
		if err == nil || !strings.Contains(err.Error(), "memory ratio") {
			t.Errorf("memory ratio %g: got %v, want an error naming the ratio", ratio, err)
		}
	}
}
