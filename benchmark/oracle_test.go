package main

import (
	"errors"
	"strings"
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

func smallPair(t *testing.T) (*gamma.Cluster, loadedPair) {
	t.Helper()
	c := gamma.NewLocal(disks, nil)
	rel, err := loadPair(c, "oracle", genPair(2000, 200, 1989), tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	return c, rel
}

// The oracle, computed from the generated tuples alone, must agree with
// what every algorithm actually joins.
func TestOracleAgreesWithEngine(t *testing.T) {
	c, rel := smallPair(t)
	algs := []core.Algorithm{core.SortMerge, core.Simple, core.Grace, core.Hybrid, core.HybridDyn}
	for _, alg := range algs {
		for _, ratio := range []float64{1, 0.25} {
			rep, err := core.Run(c, core.Spec{
				Alg: alg, R: rel.r, S: rel.s, RAttr: tuple.Unique1, SAttr: tuple.Unique1,
				MemRatio: ratio, StoreResult: true,
			})
			if err != nil {
				t.Fatalf("%v@%v: %v", alg, ratio, err)
			}
			if err := rel.want.check(rep); err != nil {
				t.Errorf("%v@%v: %v", alg, ratio, err)
			}
		}
	}
}

// A join whose count, checksum or repeated response is wrong, or which
// errored, is counted as failed; a correct one is not.
func TestSettleCountsFailures(t *testing.T) {
	c, rel := smallPair(t)
	spec := core.Spec{Alg: core.Hybrid, R: rel.r, S: rel.s, RAttr: tuple.Unique1, SAttr: tuple.Unique1, MemRatio: 0.5}
	good, err := core.Run(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(*core.Report)) *core.Report {
		rep := *good
		f(&rep)
		return &rep
	}
	cases := []struct {
		name    string
		rep     *core.Report
		runErr  error
		failure string
	}{
		{"correct", good, nil, ""},
		{"count", corrupt(func(r *core.Report) { r.ResultCount-- }), nil, "result count"},
		{"sum", corrupt(func(r *core.Report) { r.ResultSum ^= 1 }), nil, "checksum"},
		{"response", corrupt(func(r *core.Report) { r.Response++ }), nil, "earlier pass"},
		{"error", nil, errors.New("fake run error"), "fake"},
	}
	r := newRunner(config{workload: "test"})
	for i, tc := range cases {
		r.pending = append(r.pending, joinRec{key: "hybrid@0.5", want: rel.want, spec: spec, rep: tc.rep, err: tc.runErr})
		before := r.failed
		r.settle(1, snapshot{}, snapshot{}, 1)
		wantFailed := int64(1)
		if tc.failure == "" {
			wantFailed = 0
		}
		if got := r.failed - before; got != wantFailed {
			t.Errorf("%s: %d failures, want %d", tc.name, got, wantFailed)
		}
		if r.attempted != int64(i+1) {
			t.Errorf("%s: attempted %d, want %d", tc.name, r.attempted, i+1)
		}
		if tc.failure != "" {
			err := r.check.verify("hybrid@0.5", rel.want, tc.rep, tc.runErr)
			if err == nil || !strings.Contains(err.Error(), tc.failure) {
				t.Errorf("%s: verify = %v, want it to mention %q", tc.name, err, tc.failure)
			}
		}
	}
}
