package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func opsFixture(t *testing.T) (*gamma.Cluster, *gamma.Relation, []tuple.Tuple) {
	t.Helper()
	c := gamma.NewLocal(4, nil)
	tuples := wisconsin.Generate(2000, 42)
	rel, err := gamma.Load(c, "A", tuples, gamma.HashPart, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	return c, rel, tuples
}

func TestRunSelectCountsExactly(t *testing.T) {
	c, rel, _ := opsFixture(t)
	rep, _, err := RunSelect(c, SelectSpec{
		Rel:         rel,
		Pred:        pred.Range(tuple.Unique1, 100, 300),
		StoreResult: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 200 {
		t.Fatalf("selected %d rows, want 200", rep.Rows)
	}
	if rep.Response <= 0 {
		t.Fatal("no simulated time")
	}
	if rep.Disk.PagesWritten == 0 {
		t.Fatal("stored selection wrote no pages")
	}
}

func TestRunSelectCollectAndProject(t *testing.T) {
	c, rel, _ := opsFixture(t)
	_, rows, err := RunSelect(c, SelectSpec{
		Rel:     rel,
		Pred:    pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 10},
		Project: []int{tuple.Unique1, tuple.Two},
		Collect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("collected %d rows", len(rows))
	}
	for i := range rows {
		if rows[i].Int(tuple.Unique2) != 0 {
			t.Fatal("non-projected attribute not zeroed")
		}
		if rows[i].Int(tuple.Two) != rows[i].Int(tuple.Unique1)%2 {
			t.Fatal("projected attribute wrong")
		}
	}
}

// TestRunSelectNilPredSelectsAll also pins the order of collected rows:
// grouped by fragment site in ascending site order, within a site in scan
// order (RunSelect) or index order (RunIndexSelect), on every run.
func TestRunSelectNilPredSelectsAll(t *testing.T) {
	c, rel, _ := opsFixture(t)
	rep, _, err := RunSelect(c, SelectSpec{Rel: rel})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 2000 {
		t.Fatalf("rows = %d", rep.Rows)
	}

	ix, err := gamma.BuildIndex(c, rel, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	var scanOrder, indexOrder []tuple.Tuple
	for _, f := range rel.Fragments {
		var frag []tuple.Tuple
		for pos := int64(0); pos < f.Len(); pos++ {
			tp, _ := f.At(pos)
			frag = append(frag, *tp)
		}
		scanOrder = append(scanOrder, frag...)
		slices.SortFunc(frag, func(x, y tuple.Tuple) int {
			return cmp.Compare(x.Int(tuple.Unique1), y.Int(tuple.Unique1))
		})
		indexOrder = append(indexOrder, frag...)
	}
	for _, tc := range []struct {
		name    string
		want    []tuple.Tuple
		collect func() ([]tuple.Tuple, error)
	}{
		{"select", scanOrder, func() ([]tuple.Tuple, error) {
			_, rows, err := RunSelect(c, SelectSpec{Rel: rel, Collect: true})
			return rows, err
		}},
		{"index select", indexOrder, func() ([]tuple.Tuple, error) {
			_, rows, err := RunIndexSelect(c, ix, pred.Range(tuple.Unique1, 0, 2000), true)
			return rows, err
		}},
	} {
		for run := 1; run <= 2; run++ {
			rows, err := tc.collect()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, tc.want) {
				t.Fatalf("%s run %d: %d collected rows not in site order", tc.name, run, len(rows))
			}
		}
	}
}

func TestRunSelectValidation(t *testing.T) {
	c, rel, _ := opsFixture(t)
	if _, _, err := RunSelect(c, SelectSpec{}); err == nil {
		t.Fatal("missing relation should error")
	}
	if _, _, err := RunSelect(c, SelectSpec{Rel: rel, Project: []int{99}}); err == nil {
		t.Fatal("bad projection attribute should error")
	}
}

func TestAggregateScalar(t *testing.T) {
	c, rel, tuples := opsFixture(t)
	var wantSum int64
	for i := range tuples {
		wantSum += int64(tuples[i].Int(tuple.Unique1))
	}
	rep, groups, err := RunAggregate(c, AggSpec{
		Rel: rel, GroupAttr: -1, AggAttr: tuple.Unique1, Fn: Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 1 || len(groups) != 1 {
		t.Fatalf("scalar aggregate produced %d groups", len(groups))
	}
	if int64(groups[0].Value) != wantSum {
		t.Fatalf("sum = %v, want %d", groups[0].Value, wantSum)
	}
}

func TestAggregateGrouped(t *testing.T) {
	c, rel, tuples := opsFixture(t)
	// count(*) group by ten: 10 groups of 200 each.
	rep, groups, err := RunAggregate(c, AggSpec{
		Rel: rel, GroupAttr: tuple.Ten, AggAttr: tuple.Unique1, Fn: Count,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 10 {
		t.Fatalf("groups = %d, want 10", rep.Rows)
	}
	for _, g := range groups {
		if g.Value != 200 {
			t.Fatalf("group %d count %v, want 200", g.Group, g.Value)
		}
	}
	// min(unique1) group by two: reference computed directly.
	want := map[int32]int32{}
	for i := range tuples {
		u1 := tuples[i].Int(tuple.Unique1)
		g := tuples[i].Int(tuple.Two)
		if cur, ok := want[g]; !ok || u1 < cur {
			want[g] = u1
		}
	}
	_, mins, err := RunAggregate(c, AggSpec{
		Rel: rel, GroupAttr: tuple.Two, AggAttr: tuple.Unique1, Fn: Min,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range mins {
		if int32(g.Value) != want[g.Group] {
			t.Fatalf("min for group %d = %v, want %d", g.Group, g.Value, want[g.Group])
		}
	}
}

func TestAggregateAvgMaxWithPredicate(t *testing.T) {
	c, rel, _ := opsFixture(t)
	// avg(unique1) over unique1 < 100 is 49.5.
	_, groups, err := RunAggregate(c, AggSpec{
		Rel: rel, GroupAttr: -1, AggAttr: tuple.Unique1, Fn: Avg,
		Pred: pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if groups[0].Value != 49.5 {
		t.Fatalf("avg = %v, want 49.5", groups[0].Value)
	}
	_, mx, err := RunAggregate(c, AggSpec{
		Rel: rel, GroupAttr: -1, AggAttr: tuple.Unique1, Fn: Max,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mx[0].Value != 1999 {
		t.Fatalf("max = %v", mx[0].Value)
	}
}

func TestAggregateOnDisklessSites(t *testing.T) {
	// The paper: aggregate operations may execute on diskless processors.
	c := gamma.NewRemote(4, 4, nil)
	tuples := wisconsin.Generate(1000, 7)
	rel, err := gamma.Load(c, "A", tuples, gamma.RoundRobin, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	rep, groups, err := RunAggregate(c, AggSpec{
		Rel: rel, GroupAttr: tuple.Ten, AggAttr: tuple.Unique1, Fn: Count,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Final aggregation should have run at the diskless sites.
	found := false
	for _, p := range rep.Phases {
		for _, js := range c.DisklessSites() {
			if p.PerSite[js].CPU > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no diskless site did aggregation work")
	}
}

func TestAggregateValidation(t *testing.T) {
	c, rel, _ := opsFixture(t)
	if _, _, err := RunAggregate(c, AggSpec{}); err == nil {
		t.Fatal("missing relation should error")
	}
	if _, _, err := RunAggregate(c, AggSpec{Rel: rel, AggAttr: 99}); err == nil {
		t.Fatal("bad attribute should error")
	}
}

func TestAggFnString(t *testing.T) {
	for fn, want := range map[AggFn]string{
		Count: "count", Sum: "sum", Min: "min", Max: "max", Avg: "avg",
	} {
		if fn.String() != want {
			t.Fatalf("%d.String() = %q", fn, fn.String())
		}
	}
	if AggFn(9).String() == "" {
		t.Fatal("unknown fn should print")
	}
}

func TestJoinWithPushedSelections(t *testing.T) {
	// joinAselB-style: both relations are 2000 tuples; a 10% selection on
	// the outer's unique1 restricts the join.
	c := gamma.NewLocal(4, nil)
	aTuples := wisconsin.Generate(2000, 8)
	bTuples := wisconsin.Generate(2000, 9)
	s, _ := gamma.Load(c, "A", aTuples, gamma.HashPart, tuple.Unique1)
	r, _ := gamma.Load(c, "B", bTuples, gamma.HashPart, tuple.Unique1)
	for _, alg := range allAlgs {
		rep, err := Run(c, Spec{
			Alg: alg, R: r, S: s,
			RAttr: tuple.Unique1, SAttr: tuple.Unique1,
			RPred:    pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 200},
			MemRatio: 0.5, StoreResult: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Inner selects unique1 < 200 (200 tuples), each matching exactly
		// one outer tuple.
		if rep.ResultCount != 200 {
			t.Errorf("%v: joinAselB-style count %d, want 200", alg, rep.ResultCount)
		}
	}
	// Selection on both sides (joinCselAselB-style).
	rep, err := Run(c, Spec{
		Alg: Hybrid, R: r, S: s,
		RAttr: tuple.Unique1, SAttr: tuple.Unique1,
		RPred:    pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 500},
		SPred:    pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 250},
		MemRatio: 1.0, StoreResult: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultCount != 250 {
		t.Fatalf("double-selection join count %d, want 250", rep.ResultCount)
	}
}
