package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// fixture builds a small joinABprime-style workload: outer relation of n
// tuples, inner of n/10, loaded with the given strategies.
type fixture struct {
	c    *gamma.Cluster
	r, s *gamma.Relation
}

func mkFixture(t *testing.T, c *gamma.Cluster, n int, strat gamma.Strategy, partAttr int) fixture {
	t.Helper()
	a := wisconsin.Generate(n, 100)
	bprime := wisconsin.Bprime(a, int32(n/10))
	s, err := gamma.Load(c, "A", a, strat, partAttr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gamma.Load(c, "Bprime", bprime, strat, partAttr)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{c: c, r: r, s: s}
}

func runJoin(t *testing.T, f fixture, alg Algorithm, ratio float64, opts func(*Spec)) *Report {
	t.Helper()
	spec := Spec{
		Alg:         alg,
		R:           f.r,
		S:           f.s,
		RAttr:       tuple.Unique1,
		SAttr:       tuple.Unique1,
		MemRatio:    ratio,
		StoreResult: true,
	}
	if opts != nil {
		opts(&spec)
	}
	rep, err := Run(f.c, spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// refJoinCount computes the expected result cardinality with nested loops.
func refJoinCount(r, s []tuple.Tuple, rAttr, sAttr int) int64 {
	counts := map[int32]int64{}
	for i := range r {
		counts[r[i].Int(rAttr)]++
	}
	var n int64
	for i := range s {
		n += counts[s[i].Int(sAttr)]
	}
	return n
}

var allAlgs = []Algorithm{SortMerge, Simple, Grace, Hybrid, HybridDyn}

func TestAllAlgorithmsAgreeFullMemory(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		rep := runJoin(t, f, alg, 1.0, nil)
		if rep.ResultCount != 400 {
			t.Errorf("%v: result count %d, want 400", alg, rep.ResultCount)
		}
		if rep.Response <= 0 {
			t.Errorf("%v: non-positive response time", alg)
		}
	}
}

func TestAllAlgorithmsAgreeLowMemory(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		rep := runJoin(t, f, alg, 0.2, nil)
		if rep.ResultCount != 400 {
			t.Errorf("%v at 20%% memory: result count %d, want 400", alg, rep.ResultCount)
		}
	}
}

func TestAllAlgorithmsAgreeNonHPJA(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique2) // partition != join attr
	for _, alg := range allAlgs {
		for _, ratio := range []float64{1.0, 0.25} {
			rep := runJoin(t, f, alg, ratio, nil)
			if rep.ResultCount != 400 {
				t.Errorf("%v ratio %.2f: result count %d, want 400", alg, ratio, rep.ResultCount)
			}
		}
	}
}

func TestResultsExactMatch(t *testing.T) {
	// Collect actual joined tuples and compare pair multisets across all
	// algorithms against the nested-loops reference.
	c := gamma.NewLocal(4, nil)
	aTuples := wisconsin.Generate(1200, 55)
	bTuples := wisconsin.Bprime(aTuples, 120)
	s, _ := gamma.Load(c, "A", aTuples, gamma.RoundRobin, tuple.Unique1)
	r, _ := gamma.Load(c, "B", bTuples, gamma.RoundRobin, tuple.Unique1)
	f := fixture{c: c, r: r, s: s}

	wantPairs := map[[2]int32]int{}
	for i := range bTuples {
		for j := range aTuples {
			if bTuples[i].Int(tuple.Unique1) == aTuples[j].Int(tuple.Unique1) {
				wantPairs[[2]int32{bTuples[i].Int(tuple.Unique2), aTuples[j].Int(tuple.Unique2)}]++
			}
		}
	}
	for _, alg := range allAlgs {
		rep := runJoin(t, f, alg, 0.3, func(sp *Spec) { sp.CollectResults = true })
		got := map[[2]int32]int{}
		for _, j := range rep.Results {
			got[[2]int32{j.Inner.Int(tuple.Unique2), j.Outer.Int(tuple.Unique2)}]++
		}
		if len(got) != len(wantPairs) {
			t.Fatalf("%v: %d distinct pairs, want %d", alg, len(got), len(wantPairs))
		}
		for k, v := range wantPairs {
			if got[k] != v {
				t.Fatalf("%v: pair %v count %d, want %d", alg, k, got[k], v)
			}
		}
	}
}

func TestDuplicateJoinValues(t *testing.T) {
	// Join on a non-unique attribute (onePercent) so both sides carry
	// duplicates; verify exact cardinality for every algorithm.
	c := gamma.NewLocal(4, nil)
	aTuples := wisconsin.Generate(500, 9)
	bTuples := wisconsin.Generate(100, 10)
	s, _ := gamma.Load(c, "A", aTuples, gamma.HashPart, tuple.OnePercent)
	r, _ := gamma.Load(c, "B", bTuples, gamma.HashPart, tuple.OnePercent)
	f := fixture{c: c, r: r, s: s}
	want := refJoinCount(bTuples, aTuples, tuple.OnePercent, tuple.OnePercent)
	for _, alg := range allAlgs {
		rep := runJoin(t, f, alg, 0.4, func(sp *Spec) {
			sp.RAttr = tuple.OnePercent
			sp.SAttr = tuple.OnePercent
		})
		if rep.ResultCount != want {
			t.Errorf("%v: duplicates join count %d, want %d", alg, rep.ResultCount, want)
		}
	}
}

func TestBitFiltersPreserveResults(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		for _, ratio := range []float64{1.0, 0.25} {
			rep := runJoin(t, f, alg, ratio, func(sp *Spec) { sp.BitFilter = true })
			if rep.ResultCount != 400 {
				t.Errorf("%v ratio %.2f with filters: count %d, want 400", alg, ratio, rep.ResultCount)
			}
			if rep.FilterBitsPerSite != 1973 {
				t.Errorf("%v: filter bits %d, want 1973", alg, rep.FilterBitsPerSite)
			}
			if rep.FilterDropped == 0 {
				t.Errorf("%v ratio %.2f: filters dropped nothing", alg, ratio)
			}
		}
	}
}

func TestBitFiltersReduceResponse(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 8000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		plain := runJoin(t, f, alg, 0.25, nil)
		filt := runJoin(t, f, alg, 0.25, func(sp *Spec) { sp.BitFilter = true })
		if filt.Response >= plain.Response {
			t.Errorf("%v: filtered response %v not below plain %v", alg, filt.Response, plain.Response)
		}
	}
}

func TestRemoteConfiguration(t *testing.T) {
	c := gamma.NewRemote(4, 4, nil)
	f := mkFixture(t, c, 2000, gamma.HashPart, tuple.Unique1)
	for _, alg := range []Algorithm{Simple, Grace, Hybrid} {
		for _, ratio := range []float64{1.0, 0.25} {
			rep := runJoin(t, f, alg, ratio, nil)
			if rep.ResultCount != 200 {
				t.Errorf("remote %v ratio %.2f: count %d, want 200", alg, ratio, rep.ResultCount)
			}
		}
	}
	// Sort-merge must fall back to the disk sites.
	rep := runJoin(t, f, SortMerge, 1.0, func(sp *Spec) { sp.JoinSites = c.DisklessSites() })
	if rep.ResultCount != 200 {
		t.Errorf("sort-merge remote fallback: count %d", rep.ResultCount)
	}
}

func TestHPJALocalShortCircuitsEverything(t *testing.T) {
	// Paper, Section 4.1: HPJA joins in the local configuration
	// short-circuit ALL tuples of both relations, for every algorithm;
	// only result tuples (distributed round-robin to the store operators)
	// cross the network.
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		// Simple at ratio 0.5 overflows, switching hash functions and
		// becoming a non-HPJA join (the paper's Section 4.1 observation)
		// — run it at 1.0 where no overflow occurs.
		ratio := 0.5
		if alg == Simple {
			ratio = 1.0
		}
		rep := runJoin(t, f, alg, ratio, nil)
		if rep.Net.TuplesRemote.Count() > rep.ResultCount {
			t.Errorf("%v HPJA local: %d remote tuples exceed the %d result tuples",
				alg, rep.Net.TuplesRemote, rep.ResultCount)
		}
		if rep.Forming.TuplesRemote != 0 {
			t.Errorf("%v HPJA local: %d forming tuples crossed the network, want 0",
				alg, rep.Forming.TuplesRemote)
		}
		if rep.Net.TuplesLocal == 0 {
			t.Errorf("%v HPJA local: no local traffic recorded", alg)
		}
	}
}

func TestSimpleOverflowTurnsHPJAIntoNonHPJA(t *testing.T) {
	// Section 4.1: "the hash function is changed after each overflow,
	// thus converting HPJA joins into non-HPJA joins" — so an HPJA
	// Simple join with overflow generates remote traffic.
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Simple, 0.5, nil)
	if rep.ROverflowed == 0 {
		t.Fatal("Simple at ratio 0.5 should overflow")
	}
	if rep.Net.TuplesRemote.Count() <= rep.ResultCount {
		t.Fatalf("overflow levels should generate remote traffic: %d remote, %d results",
			rep.Net.TuplesRemote, rep.ResultCount)
	}
}

func TestNonHPJAShortCircuitsOneOverD(t *testing.T) {
	// Non-HPJA joins short-circuit ~1/8 of the tuples on 8 sites during
	// redistribution. (Grace redistributes twice and its second,
	// bucket-joining redistribution is fully local, so its overall local
	// fraction is ~0.55 — checked separately below.)
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 8000, gamma.HashPart, tuple.Unique2)
	for _, alg := range []Algorithm{SortMerge, Simple, Hybrid} {
		rep := runJoin(t, f, alg, 1.0, nil)
		if frac := rep.Net.LocalFraction(); frac < 0.08 || frac > 0.20 {
			t.Errorf("%v non-HPJA: local fraction %.3f, want ~1/8", alg, frac)
		}
	}
	rep := runJoin(t, f, Grace, 1.0, nil)
	if frac := rep.Net.LocalFraction(); frac < 0.45 || frac > 0.65 {
		t.Errorf("grace non-HPJA: local fraction %.3f, want ~0.55 (forming 1/8 + bucket join fully local)", frac)
	}
}

func TestGraceBucketJoinFullyLocal(t *testing.T) {
	// Section 4.1: after bucket forming, Grace's bucket-joining phase
	// short-circuits every tuple in the local configuration even for
	// non-HPJA joins.
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique2)
	rep := runJoin(t, f, Grace, 0.25, nil)
	for _, p := range rep.Phases {
		if len(p.Name) > 6 && p.Name[:6] == "bucket" {
			// Result-store traffic is round-robin (mostly remote), so
			// examine only build phases, which carry no results.
			if p.Name[len(p.Name)-5:] == "build" && p.Net.TuplesRemote != 0 {
				t.Errorf("grace %s: %d remote tuples, want 0", p.Name, p.Net.TuplesRemote)
			}
		}
	}
}

func TestHybridEqualsSimpleAtFullMemory(t *testing.T) {
	// Paper: "when the smaller relation fits entirely in memory (at 1.0),
	// Hybrid and Simple algorithms have identical execution times."
	c1 := gamma.NewLocal(8, nil)
	f1 := mkFixture(t, c1, 4000, gamma.HashPart, tuple.Unique1)
	hy := runJoin(t, f1, Hybrid, 1.0, nil)
	c2 := gamma.NewLocal(8, nil)
	f2 := mkFixture(t, c2, 4000, gamma.HashPart, tuple.Unique1)
	si := runJoin(t, f2, Simple, 1.0, nil)
	if hy.Response != si.Response {
		t.Fatalf("Hybrid (%v) != Simple (%v) at 100%% memory", hy.Response, si.Response)
	}
}

func TestSimpleOverflowRecursion(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Simple, 0.15, nil)
	if rep.OverflowLevels == 0 || rep.ROverflowed == 0 {
		t.Fatalf("Simple at 15%% memory should overflow: %+v levels, %d tuples",
			rep.OverflowLevels, rep.ROverflowed)
	}
	if rep.ResultCount != 400 {
		t.Fatalf("result count %d after overflow recursion", rep.ResultCount)
	}
}

func TestGraceHybridNoOverflowAtIntegralBuckets(t *testing.T) {
	// The paper chooses integral bucket counts so Grace and Hybrid never
	// overflow on uniform data.
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 8000, gamma.HashPart, tuple.Unique1)
	for _, alg := range []Algorithm{Grace, Hybrid} {
		for _, ratio := range []float64{0.5, 0.25, 0.2} {
			rep := runJoin(t, f, alg, ratio, nil)
			if rep.OverflowClears != 0 {
				t.Errorf("%v at ratio %.2f overflowed (%d clears) despite %d buckets",
					alg, ratio, rep.OverflowClears, rep.Buckets)
			}
			want := int(1/ratio + 0.5)
			if rep.Buckets != want {
				t.Errorf("%v at ratio %.2f used %d buckets, want %d", alg, ratio, rep.Buckets, want)
			}
		}
	}
}

func TestHybridAllowOverflowMode(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 8000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Hybrid, 0.7, func(sp *Spec) { sp.AllowOverflow = true })
	if rep.Buckets != 1 {
		t.Fatalf("optimistic hybrid at 0.7 used %d buckets, want 1", rep.Buckets)
	}
	if rep.ROverflowed == 0 {
		t.Fatal("optimistic hybrid at 0.7 should overflow")
	}
	if rep.ResultCount != 800 {
		t.Fatalf("result count %d, want 800", rep.ResultCount)
	}
}

func TestDeterministicResponse(t *testing.T) {
	// Two identical runs on fresh clusters must produce identical
	// simulated response times, phase by phase.
	run := func() *Report {
		c := gamma.NewLocal(8, nil)
		f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
		return runJoin(t, f, Simple, 0.15, func(sp *Spec) { sp.BitFilter = true })
	}
	a, b := run(), run()
	if a.Response != b.Response {
		t.Fatalf("nondeterministic response: %v vs %v", a.Response, b.Response)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase counts differ: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i].Elapsed() != b.Phases[i].Elapsed() {
			t.Fatalf("phase %q differs: %v vs %v", a.Phases[i].Name,
				a.Phases[i].Elapsed(), b.Phases[i].Elapsed())
		}
	}
	if a.ROverflowed != b.ROverflowed || a.FilterDropped != b.FilterDropped {
		t.Fatal("nondeterministic counters")
	}
}

func TestSortMergeSortPassesIncreaseAsMemoryShrinks(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 16000, gamma.HashPart, tuple.Unique1)
	big := runJoin(t, f, SortMerge, 1.0, nil)
	small := runJoin(t, f, SortMerge, 0.125, nil)
	if small.SortPassesS < big.SortPassesS {
		t.Fatalf("S sort passes should not shrink with less memory: %d vs %d",
			small.SortPassesS, big.SortPassesS)
	}
	if small.Response <= big.Response {
		t.Fatalf("sort-merge with 1/8 memory (%v) should be slower than full (%v)",
			small.Response, big.Response)
	}
}

func TestSpecValidation(t *testing.T) {
	c := gamma.NewLocal(2, nil)
	f := mkFixture(t, c, 200, gamma.HashPart, tuple.Unique1)
	if _, err := Run(c, Spec{Alg: Hybrid}); err == nil {
		t.Fatal("missing relations should error")
	}
	if _, err := Run(c, Spec{Alg: Hybrid, R: f.r, S: f.s, RAttr: -1, MemRatio: 1}); err == nil {
		t.Fatal("bad attribute should error")
	}
	if _, err := Run(c, Spec{Alg: Hybrid, R: f.r, S: f.s}); err == nil {
		t.Fatal("missing memory spec should error")
	}
	if _, err := Run(c, Spec{Alg: Algorithm(99), R: f.r, S: f.s, MemRatio: 1}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := Run(c, Spec{Alg: Hybrid, R: f.r, S: f.s, MemRatio: 1, JoinSites: []int{42}}); err == nil {
		t.Fatal("out-of-range join site should error")
	}
	// Each of these once ran silently with a one-tuple budget.
	for _, ratio := range []float64{math.NaN(), math.Inf(1), 1e300} {
		if _, err := Run(c, Spec{Alg: Hybrid, R: f.r, S: f.s, MemRatio: ratio}); err == nil {
			t.Errorf("memory ratio %g should error", ratio)
		}
	}
	if _, err := Run(c, Spec{Alg: Hybrid, R: f.r, S: f.s, MemRatio: 1, ForceBuckets: -3}); err == nil {
		t.Fatal("negative bucket count should error")
	}
	if _, err := Run(c, Spec{Alg: Hybrid, R: f.r, S: f.s, MemRatio: 1, ForceBuckets: int(f.r.N) + 1}); err == nil {
		t.Fatal("more buckets than inner tuples should error")
	}
}

// TestBucketCountBoundedByInner: an inner-size estimate a thousand times
// too large must not plan more Grace or Hybrid buckets than there are inner
// tuples, and the capped join still returns the right answer.
func TestBucketCountBoundedByInner(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 2000, gamma.HashPart, tuple.Unique1)
	for _, alg := range []Algorithm{Grace, Hybrid} {
		rep := runJoin(t, f, alg, 0.5, func(s *Spec) { s.EstErrorFactor = 1000 })
		if int64(rep.Buckets) > f.r.N {
			t.Errorf("%v: %d buckets for a %d-tuple inner relation", alg, rep.Buckets, f.r.N)
		}
		if rep.ResultCount != f.r.N {
			t.Errorf("%v: %d results, want %d", alg, rep.ResultCount, f.r.N)
		}
	}
}

// TestJoinSitesRejectsDuplicates: a join-site list naming a site twice would
// make that site build, probe and write its overflow file twice, so every
// algorithm must refuse it up front rather than return a wrong answer.
func TestJoinSitesRejectsDuplicates(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		for _, ratio := range []float64{0.25, 4.0} {
			rep, err := Run(c, Spec{
				Alg: alg, R: f.r, S: f.s,
				RAttr: tuple.Unique1, SAttr: tuple.Unique1,
				MemRatio:  ratio,
				JoinSites: []int{0, 0, 1, 2, 3, 4, 5, 6, 7},
			})
			if err == nil {
				t.Errorf("%v ratio %.2f: duplicate join site accepted (%d rows, want an error)",
					alg, ratio, rep.ResultCount)
				continue
			}
			if !strings.Contains(err.Error(), "join site 0 listed twice") {
				t.Errorf("%v ratio %.2f: error %q does not name the repeated site", alg, ratio, err)
			}
		}
	}
	if live := c.LiveTempFiles(); len(live) != 0 {
		t.Errorf("temp files left behind: %v", live)
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		SortMerge: "sort-merge", Simple: "simple", Grace: "grace", Hybrid: "hybrid",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Fatalf("%d.String() = %q", alg, alg.String())
		}
	}
	if Algorithm(77).String() == "" {
		t.Fatal("unknown algorithm should still print")
	}
}

func TestPhasesAreOrdered(t *testing.T) {
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 1000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Grace, 0.5, nil)
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Name)
	}
	want := []string{"form R", "form S", "bucket 1 build", "bucket 1 probe",
		"bucket 2 build", "bucket 2 probe"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phase %d = %q, want %q (all: %v)", i, names[i], want[i], names)
		}
	}
	if !sort.SliceIsSorted(rep.Phases, func(i, j int) bool { return i < j }) {
		t.Fatal("unreachable")
	}
}
