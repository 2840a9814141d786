package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// planDigests pins every algorithm's plan across commits: each cell is one
// SHA-256 over a join's report counters and its three trace exports. The
// determinism gates only compare two runs of the same build; these constants
// catch a change that deterministically moves a phase, a span, a temp-file
// write or a routing counter. Regenerate them only for a deliberate change
// to the cost model or to a plan, and say so in the change description.
var planDigests = map[string]string{
	"local-hpja/sort-merge":      "a077a24169f3252413a9aba26b56a8cf8a577c8624d40935443b7b4954a9ffec",
	"local-hpja/simple":          "2b058235c10db9189a4abb8df14e2ca8ea35a216a8236e0d3617e70b44275df6",
	"local-hpja/grace":           "1c3aae0766b8e28ca7747b286901adb1bc4b76b2fafbce4b39c03ed3eabd555e",
	"local-hpja/hybrid":          "2ad6b441108894c3728ddc36b44fd9aa3a03ea2e4ff2d83e07f24b4c55489f46",
	"local-hpja/hybrid-dyn":      "33be416b3d9d0a3907b8481122e06ec6d479760031b14723816fc2291dfb81a9",
	"remote-nonhpja/sort-merge":  "191c9d5eb947fd17f90fee6f3bd1f1c7d92c9770fccf8ff6b35be3a410557489",
	"remote-nonhpja/simple":      "d747e6958c01343bc29efa99a0f5cc9306abda196c2ddc18079082e9ee90ca77",
	"remote-nonhpja/grace":       "5d46a47c97940cffadee144e374be980c845b8777f772a9e82c682bad70c70b6",
	"remote-nonhpja/hybrid":      "b6d6f1e4e4635d04ffd87efb15e4a55ef6c5235b9c07a05080df549a1760833b",
	"remote-nonhpja/hybrid-dyn":  "ae0901181ad1869dd6796c45749752aa7d1bdf644d494762ab699b7440621857",
	"skewed/sort-merge":          "722a22060947859ed93610f0c8e3989081b6f00e11ac7d019198c8f39a822ac7",
	"skewed/simple":              "8f1970604988846a1969b27f39849883115d2ce8fa8d18a455551c004d006e65",
	"skewed/grace":               "e7849152c21672464996b9658a8c703e5f85459f876863c79a4faaa53fc410c8",
	"skewed/hybrid":              "4c9eb15298d729982cb20a4722d16e610845d65d76c853f4e803a3317a7e35f5",
	"skewed/hybrid-dyn":          "24343f6023ba8a16cdc531f33d37f3189dc57cfa53f446626e07e50d1b1b5ef0",
	"skewed/grace-tuned":         "f6a12a2839319c5459926e46e58efe88ce5014d2fcfa447239660e0336eb1b31",
	"local-hpja/hybrid-overflow": "7f503674b7fab5e093d0176a7c4f948e39177aa40c55bca6c25836ba722baea7",
}

// skewedFixture is the skewed inner of TestBucketTuningAbsorbsSkewWithoutOverflow:
// a RandomSubset of a skewed outer, joined Normal = Unique1.
func skewedFixture(t *testing.T) (fixture, func(*Spec)) {
	t.Helper()
	c := gamma.NewLocal(8, nil)
	outer := wisconsin.GenerateSkewed(8000, 5)
	inner := wisconsin.RandomSubset(outer, 800, 6)
	s, err := gamma.Load(c, "A", outer, gamma.RangeUniform, tuple.Normal)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gamma.Load(c, "B", inner, gamma.RangeUniform, tuple.Normal)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{c: c, r: r, s: s}, func(sp *Spec) {
		sp.RAttr = tuple.Normal
		sp.SAttr = tuple.Unique1
	}
}

// planDigest hashes the report's counters and its Chrome, spans and metrics
// exports.
func planDigest(t *testing.T, rep *Report) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "count=%d sum=%d response=%d buckets=%d\n",
		rep.ResultCount, rep.ResultSum, rep.Response, rep.Buckets)
	fmt.Fprintf(h, "overflow levels=%d clears=%d r=%d s=%d\n",
		rep.OverflowLevels, rep.OverflowClears, rep.ROverflowed, rep.SOverflowed)
	fmt.Fprintf(h, "filter bits=%d dropped=%d\n", rep.FilterBitsPerSite, rep.FilterDropped)
	fmt.Fprintf(h, "spill=%d resurrect=%d revoked=%d\n", rep.SpillCount, rep.Resurrections, rep.RevokedPages)
	fmt.Fprintf(h, "net=%+v\ndisk=%+v\nforming=%+v\n", rep.Net, rep.Disk, rep.Forming)
	fmt.Fprintf(h, "chain avg=%v max=%d\n", rep.AvgChain, rep.MaxChain)
	fmt.Fprintf(h, "util disk=%v diskless=%v bottleneck=%d\n", rep.UtilDisk, rep.UtilDiskless, rep.BottleneckBusy)
	for _, export := range []func(io.Writer) error{
		rep.Trace.WriteChrome, rep.Trace.WriteSpansTSV, rep.Trace.WriteMetricsTSV,
	} {
		if err := export(h); err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPlanDigests(t *testing.T) {
	got := map[string]string{}
	cell := func(name string, f fixture, alg Algorithm, ratio float64, opts func(*Spec)) {
		rep := runJoin(t, f, alg, ratio, opts)
		got[name] = planDigest(t, rep)
	}
	for _, alg := range allAlgs {
		f := mkFixture(t, gamma.NewLocal(8, nil), 4000, gamma.HashPart, tuple.Unique1)
		cell("local-hpja/"+alg.String(), f, alg, 0.25, func(sp *Spec) { sp.BitFilter = true })
	}
	for _, alg := range allAlgs {
		f := mkFixture(t, gamma.NewRemote(8, 8, nil), 4000, gamma.HashPart, tuple.Unique2)
		cell("remote-nonhpja/"+alg.String(), f, alg, 0.2, func(sp *Spec) {
			sp.BitFilter = true
			sp.FilterForming = true
		})
	}
	for _, alg := range allAlgs {
		f, opts := skewedFixture(t)
		cell("skewed/"+alg.String(), f, alg, 0.13, opts)
	}
	f, opts := skewedFixture(t)
	cell("skewed/grace-tuned", f, Grace, 0.13, func(sp *Spec) { opts(sp); sp.BucketTuning = true })
	f = mkFixture(t, gamma.NewLocal(8, nil), 4000, gamma.HashPart, tuple.Unique1)
	cell("local-hpja/hybrid-overflow", f, Hybrid, 0.7, func(sp *Spec) { sp.AllowOverflow = true })

	names := make([]string, 0, len(planDigests))
	for name := range planDigests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want := planDigests[name]; got[name] != want {
			t.Errorf("%s: plan digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(planDigests) {
		t.Errorf("%d cells ran, %d digests pinned", len(got), len(planDigests))
	}
}
