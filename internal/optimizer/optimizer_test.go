package optimizer

import (
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/experiments"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func TestChoose(t *testing.T) {
	cases := []struct {
		s    Stats
		want core.Algorithm
	}{
		{Stats{InnerSkew: 1.0, InnerBytes: 100, MemBytes: 100}, core.Hybrid},
		{Stats{InnerSkew: 1.0, InnerBytes: 100, MemBytes: 10}, core.Hybrid},
		{Stats{InnerSkew: 1.5, InnerBytes: 100, MemBytes: 100}, core.Hybrid}, // skew but plenty of memory
		{Stats{InnerSkew: 1.5, InnerBytes: 100, MemBytes: 10}, core.SortMerge},
	}
	for _, c := range cases {
		if got := Choose(c.s); got != c.want {
			t.Errorf("Choose(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
	if !UseBitFilter(Stats{}) {
		t.Error("bit filters should always be on")
	}
}

func TestChooseJoinSites(t *testing.T) {
	local := gamma.NewLocal(4, nil)
	remote := gamma.NewRemote(4, 4, nil)
	// No diskless sites -> disk sites regardless.
	if got := ChooseJoinSites(local, Stats{}); len(got) != 4 || got[0] != 0 {
		t.Fatalf("local sites = %v", got)
	}
	// Non-HPJA with enough memory -> offload to diskless.
	st := Stats{HPJA: false, InnerBytes: 100, MemBytes: 100}
	if got := ChooseJoinSites(remote, st); got[0] != 4 {
		t.Fatalf("non-HPJA full-memory should go remote, got %v", got)
	}
	// HPJA stays local.
	st.HPJA = true
	if got := ChooseJoinSites(remote, st); got[0] != 0 {
		t.Fatalf("HPJA should stay local, got %v", got)
	}
	// Memory-limited non-HPJA stays local (Figure 16 crossover).
	st = Stats{HPJA: false, InnerBytes: 100, MemBytes: 20}
	if got := ChooseJoinSites(remote, st); got[0] != 0 {
		t.Fatalf("memory-limited non-HPJA should stay local, got %v", got)
	}
}

func TestBuckets(t *testing.T) {
	if got := Buckets(Stats{InnerBytes: 1000, MemBytes: 250}, 100, 8, 8, true); got != 4 {
		t.Fatalf("Buckets = %d, want 4", got)
	}
	// The pathological remote shape bumps the count (Appendix A).
	if got := Buckets(Stats{InnerBytes: 300, MemBytes: 100}, 100, 2, 4, true); got != 4 {
		t.Fatalf("pathological Buckets = %d, want 4", got)
	}
	if got := Buckets(Stats{InnerBytes: 10, MemBytes: 100}, 100, 8, 8, false); got != 1 {
		t.Fatalf("oversized memory Buckets = %d, want 1", got)
	}
	// At most one bucket per inner tuple.
	if got := Buckets(Stats{InnerBytes: 1000, MemBytes: 1}, 3, 8, 8, false); got != 3 {
		t.Fatalf("three-tuple inner Buckets = %d, want 3", got)
	}
}

func TestSampleSkew(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	uniform, _ := gamma.Load(c, "U", wisconsin.Generate(8000, 1), gamma.RoundRobin, tuple.Unique1)
	if skew := SampleSkew(uniform, tuple.Unique1, 8); skew > 1.01 {
		t.Fatalf("dense uniform keys skew = %v, want ~1.0", skew)
	}
	skewed, _ := gamma.Load(c, "N", wisconsin.GenerateSkewed(8000, 2), gamma.RoundRobin, tuple.Unique1)
	if s := SampleSkew(skewed, tuple.Normal, 8); s <= 1.02 {
		t.Fatalf("skewed attribute skew = %v, want > 1.02", s)
	}
	if SampleSkew(uniform, tuple.Unique1, 0) != 1.0 {
		t.Fatal("degenerate site count should report balance")
	}
}

func TestPlanJoinEndToEnd(t *testing.T) {
	// Uniform HPJA workload: plan should pick Hybrid, local sites,
	// filters, and execute correctly.
	c := gamma.NewRemote(4, 4, nil)
	outer := wisconsin.Generate(2000, 3)
	inner := wisconsin.Bprime(outer, 200)
	s, _ := gamma.Load(c, "A", outer, gamma.HashPart, tuple.Unique1)
	r, _ := gamma.Load(c, "B", inner, gamma.HashPart, tuple.Unique1)

	plan := PlanJoin(c, r, s, tuple.Unique1, tuple.Unique1, r.Bytes()/2)
	if plan.Alg != core.Hybrid {
		t.Fatalf("plan chose %v", plan.Alg)
	}
	if !plan.Stats.HPJA {
		t.Fatal("plan missed the HPJA property")
	}
	if plan.JoinSites[0] != 0 {
		t.Fatalf("HPJA plan should stay local, got %v", plan.JoinSites)
	}
	if plan.Buckets != 2 {
		t.Fatalf("plan buckets = %d, want 2", plan.Buckets)
	}
	rep, err := core.Run(c, plan.Spec(r, s, tuple.Unique1, tuple.Unique1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultCount != 200 {
		t.Fatalf("planned join count = %d", rep.ResultCount)
	}

	// At every ratio of the paper's memory sweep, on a local and a remote
	// machine, the plan names the bucket count the join runs. With a
	// 1000-tuple inner the byte budgets at 1/3, 1/6 and 1/7 truncate to a
	// few bytes under the exact share, which a plan without the runner's
	// slack rounds up to one bucket more.
	outer = wisconsin.Generate(10000, 3)
	inner = wisconsin.Bprime(outer, 1000)
	for _, m := range []struct {
		name string
		c    *gamma.Cluster
	}{{"local", gamma.NewLocal(4, nil)}, {"remote", gamma.NewRemote(4, 4, nil)}} {
		s, _ := gamma.Load(m.c, "A", outer, gamma.HashPart, tuple.Unique1)
		r, _ := gamma.Load(m.c, "B", inner, gamma.HashPart, tuple.Unique1)
		for _, ratio := range experiments.MemRatios {
			mem, err := core.RatioBytes(ratio, r.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			plan := PlanJoin(m.c, r, s, tuple.Unique1, tuple.Unique1, mem)
			rep, err := core.Run(m.c, plan.Spec(r, s, tuple.Unique1, tuple.Unique1))
			if err != nil {
				t.Fatal(err)
			}
			if plan.Buckets != rep.Buckets {
				t.Errorf("%s, ratio %.3f: %v plan names %d buckets, the join ran %d",
					m.name, ratio, plan.Alg, plan.Buckets, rep.Buckets)
			}
		}
	}
}

func TestPlanJoinSkewPicksSortMerge(t *testing.T) {
	c := gamma.NewRemote(4, 4, nil)
	outer := wisconsin.GenerateSkewed(4000, 4)
	inner := wisconsin.RandomSubset(outer, 400, 5)
	// At this reduced scale the normal distribution alone is too mild to
	// trip the threshold; concentrate a quarter of the inner on one value
	// (heavy duplication is exactly what the paper's NU inner exhibits).
	for i := 0; i < len(inner)/4; i++ {
		inner[i].SetInt(tuple.Normal, 77)
	}
	s, _ := gamma.Load(c, "A", outer, gamma.RangeUniform, tuple.Unique1)
	r, _ := gamma.Load(c, "B", inner, gamma.RangeUniform, tuple.Normal)

	plan := PlanJoin(c, r, s, tuple.Normal, tuple.Unique1, r.Bytes()/6)
	if plan.Stats.InnerSkew <= 1.0 {
		t.Fatalf("skew stat = %v", plan.Stats.InnerSkew)
	}
	if plan.Alg != core.SortMerge {
		t.Fatalf("skewed + memory-limited plan chose %v, want sort-merge", plan.Alg)
	}
	// Sort-merge plans must not use diskless processors.
	for _, js := range plan.JoinSites {
		if js >= 4 {
			t.Fatalf("sort-merge planned on diskless site %d", js)
		}
	}
	rep, err := core.Run(c, plan.Spec(r, s, tuple.Normal, tuple.Unique1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultCount != 400 {
		t.Fatalf("count = %d, want 400", rep.ResultCount)
	}
}

func TestPlanJoinNonHPJAOffloads(t *testing.T) {
	c := gamma.NewRemote(4, 4, nil)
	outer := wisconsin.Generate(2000, 6)
	inner := wisconsin.Bprime(outer, 200)
	s, _ := gamma.Load(c, "A", outer, gamma.HashPart, tuple.Unique2)
	r, _ := gamma.Load(c, "B", inner, gamma.HashPart, tuple.Unique2)
	plan := PlanJoin(c, r, s, tuple.Unique1, tuple.Unique1, r.Bytes())
	if plan.Stats.HPJA {
		t.Fatal("unique2-partitioned relations misdetected as HPJA")
	}
	if plan.JoinSites[0] < 4 {
		t.Fatalf("non-HPJA full-memory plan should offload, got %v", plan.JoinSites)
	}
}
