package query

import (
	"strings"
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func fixture(t *testing.T) (*gamma.Cluster, *gamma.Relation, *gamma.Relation) {
	t.Helper()
	c := gamma.NewRemote(4, 4, nil)
	outer := wisconsin.Generate(4000, 21)
	inner := wisconsin.Generate(4000, 22)
	s, err := gamma.Load(c, "A", outer, gamma.HashPart, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gamma.Load(c, "B", inner, gamma.HashPart, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	return c, r, s
}

// run prepares q and executes the plan on c.
func run(t *testing.T, c *gamma.Cluster, q Join) *core.Report {
	t.Helper()
	p, err := Prepare(c, q)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestJoinABprimeStyle(t *testing.T) {
	c, r, s := fixture(t)
	rep := run(t, c, Join{
		Inner:            Scan{Rel: r, Pred: pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 400}},
		Outer:            Scan{Rel: s},
		InnerAttr:        tuple.Unique1,
		OuterAttr:        tuple.Unique1,
		InnerSelectivity: 0.1,
		MemRatio:         0.5,
	})
	if rep.ResultCount != 400 {
		t.Fatalf("count = %d, want 400", rep.ResultCount)
	}
	// The optimizer should have sized buckets from the selected inner
	// (0.1 * 4000 tuples at ratio 0.5 -> 2 buckets), not the full scan.
	if rep.Buckets != 2 {
		t.Fatalf("buckets = %d, want 2 (selectivity-aware sizing)", rep.Buckets)
	}
}

func TestJoinCselAselBStyle(t *testing.T) {
	c, r, s := fixture(t)
	rep := run(t, c, Join{
		Inner:            Scan{Rel: r, Pred: pred.Range(tuple.Unique1, 0, 1000)},
		Outer:            Scan{Rel: s, Pred: pred.Range(tuple.Unique1, 500, 1500)},
		InnerAttr:        tuple.Unique1,
		OuterAttr:        tuple.Unique1,
		InnerSelectivity: 0.25,
	})
	// Intersection of [0,1000) and [500,1500) over permutations = 500.
	if rep.ResultCount != 500 {
		t.Fatalf("count = %d, want 500", rep.ResultCount)
	}
}

func TestForceAlgorithm(t *testing.T) {
	c, r, s := fixture(t)
	alg := core.SortMerge
	p, err := Prepare(c, Join{
		Inner: Scan{Rel: r}, Outer: Scan{Rel: s},
		InnerAttr: tuple.Unique1, OuterAttr: tuple.Unique1,
		Force: &alg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Opt.Alg != core.SortMerge {
		t.Fatalf("force ignored: %v", p.Opt.Alg)
	}
	rep, err := p.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alg != core.SortMerge || rep.ResultCount != 4000 {
		t.Fatalf("alg=%v count=%d", rep.Alg, rep.ResultCount)
	}
}

func TestExplain(t *testing.T) {
	c, r, s := fixture(t)
	p, err := Prepare(c, Join{
		Inner:     Scan{Rel: r, Pred: pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 10}},
		Outer:     Scan{Rel: s},
		InnerAttr: tuple.Unique1, OuterAttr: tuple.Unique1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{
		"JOIN [hybrid]", "on unique1 = unique1", "bit filters",
		"SCAN [inner] B", "where unique1 < 10", "SCAN [outer] A",
		"HPJA true", "local (disk sites)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRemotePlacement(t *testing.T) {
	c := gamma.NewRemote(4, 4, nil)
	outer := wisconsin.Generate(1000, 30)
	inner := wisconsin.Bprime(outer, 100)
	s, _ := gamma.Load(c, "A", outer, gamma.HashPart, tuple.Unique2)
	r, _ := gamma.Load(c, "B", inner, gamma.HashPart, tuple.Unique2)
	p, err := Prepare(c, Join{
		Inner: Scan{Rel: r}, Outer: Scan{Rel: s},
		InnerAttr: tuple.Unique1, OuterAttr: tuple.Unique1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Remote {
		t.Fatal("non-HPJA full-memory plan should be remote")
	}
	if !strings.Contains(p.Explain(), "remote (diskless sites)") {
		t.Fatalf("Explain placement wrong:\n%s", p.Explain())
	}
}

func TestPrepareValidation(t *testing.T) {
	c, r, _ := fixture(t)
	if _, err := Prepare(c, Join{}); err == nil {
		t.Fatal("empty join accepted")
	}
	if _, err := Prepare(c, Join{Inner: Scan{Rel: r}, Outer: Scan{Rel: r}, InnerAttr: -1}); err == nil {
		t.Fatal("bad attribute accepted")
	}
}
