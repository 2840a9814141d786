package gammajoin

// Benchmarks regenerating every table and figure of the paper, plus
// per-algorithm engine benchmarks and ablations of the design choices
// called out in DESIGN.md.
//
// Every benchmark runs cases from one table, benchCases, named as
// BENCH_1989.json records them. A case builds its own machine on a scaled
// joinABprime (10k x 1k tuples), runs once and returns the simulated
// metrics of its headline data point by unit ("sim-sec", "qps", ...), so
// `go test -bench .` doubles as a compact reproduction table and
// TestSimBaseline holds every metric to BENCH_1989.json exactly.
// `go run ./cmd/gammabench` regenerates the full-size (100k x 10k) results.

import (
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/experiments"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// metrics maps a unit to a case's simulated value in it.
type metrics = map[string]float64

// benchCases lists every case in benchmark order. A case that reports no
// metric (a table, for instance) returns nil and has no baseline entry.
var benchCases = []struct {
	name string
	run  func(tb testing.TB) metrics
}{
	{"Figure5", experiment("fig5")},
	{"Figure6", experiment("fig6")},
	{"Figure7", experiment("fig7")},
	{"Figure8", experiment("fig8")},
	{"Figure9", experiment("fig9")},
	{"Figures10to13", experiment("fig10-13")},
	{"Figure14", experiment("fig14")},
	{"Figure15", experiment("fig15")},
	{"Figure16", experiment("fig16")},
	{"Table1", experiment("table1")},
	{"Table2", experiment("table2")},
	{"Table3", experiment("table3")},
	{"Table4", experiment("table4")},
	{"Table3Extras", experiment("table3x")},
	{"AppendixA", experiment("appendixA")},
	// Each algorithm at half memory, the paper's most discriminating point.
	{"Join/sort-merge", halfMemory(core.SortMerge)},
	{"Join/simple", halfMemory(core.Simple)},
	{"Join/grace", halfMemory(core.Grace)},
	{"Join/hybrid", halfMemory(core.Hybrid)},
	{"DynHybrid", dynHybrid},
	// Hybrid on the Appendix-A pathological configuration (2 disks, 4
	// diskless join nodes, 3 buckets) with and without the optimizer's
	// bucket analyzer. Without it, two join sites starve and the others
	// overflow.
	{"AblationBucketAnalyzer/with-analyzer", bucketAnalyzer(false)},
	{"AblationBucketAnalyzer/without-analyzer", bucketAnalyzer(true)},
	// The packet size bounds the shared bit filter: a bigger packet means
	// a bigger, more selective filter (the saturation effect of Section
	// 4.2).
	{"AblationFilterSize/512B", filterSize(512)},
	{"AblationFilterSize/2KB", filterSize(2048)},
	{"AblationFilterSize/8KB", filterSize(8192)},
	// The Figure 7 tradeoff at one intermediate ratio: optimistic
	// single-bucket-with-overflow against the pessimistic extra bucket.
	{"AblationOverflowVsBucket/optimistic-overflow", overflowVsBucket(true)},
	{"AblationOverflowVsBucket/pessimistic-2-buckets", overflowVsBucket(false)},
	// Extensions: the paper's future work, measured.
	{"ExtFormingFilters", experiment("ext-formfilter")},
	{"ExtBucketTuning", experiment("ext-tuning")},
	{"ExtMixedConfig", experiment("ext-mixed")},
	{"ExtUtilization", experiment("ext-util")},
	{"ExtJoinAselB", experiment("ext-aselb")},
	// The non-join operators.
	{"Select", selectRange},
	{"Aggregate", aggregate},
	{"ExtSpeedup", experiment("ext-speedup")},
	{"ExtGrowingRelations", experiment("ext-growing")},
	{"ExtMultiuser", experiment("ext-multiuser")},
	{"MPLSweep", mplSweep},
}

func BenchmarkFigure5(b *testing.B)       { benchRun(b, "Figure5") }
func BenchmarkFigure6(b *testing.B)       { benchRun(b, "Figure6") }
func BenchmarkFigure7(b *testing.B)       { benchRun(b, "Figure7") }
func BenchmarkFigure8(b *testing.B)       { benchRun(b, "Figure8") }
func BenchmarkFigure9(b *testing.B)       { benchRun(b, "Figure9") }
func BenchmarkFigures10to13(b *testing.B) { benchRun(b, "Figures10to13") }
func BenchmarkFigure14(b *testing.B)      { benchRun(b, "Figure14") }
func BenchmarkFigure15(b *testing.B)      { benchRun(b, "Figure15") }
func BenchmarkFigure16(b *testing.B)      { benchRun(b, "Figure16") }
func BenchmarkTable1(b *testing.B)        { benchRun(b, "Table1") }
func BenchmarkTable2(b *testing.B)        { benchRun(b, "Table2") }
func BenchmarkTable3(b *testing.B)        { benchRun(b, "Table3") }
func BenchmarkTable4(b *testing.B)        { benchRun(b, "Table4") }
func BenchmarkTable3Extras(b *testing.B)  { benchRun(b, "Table3Extras") }
func BenchmarkAppendixA(b *testing.B)     { benchRun(b, "AppendixA") }
func BenchmarkJoin(b *testing.B)          { benchRun(b, "Join") }
func BenchmarkDynHybrid(b *testing.B)     { benchRun(b, "DynHybrid") }

func BenchmarkAblationBucketAnalyzer(b *testing.B)   { benchRun(b, "AblationBucketAnalyzer") }
func BenchmarkAblationFilterSize(b *testing.B)       { benchRun(b, "AblationFilterSize") }
func BenchmarkAblationOverflowVsBucket(b *testing.B) { benchRun(b, "AblationOverflowVsBucket") }

func BenchmarkExtFormingFilters(b *testing.B)   { benchRun(b, "ExtFormingFilters") }
func BenchmarkExtBucketTuning(b *testing.B)     { benchRun(b, "ExtBucketTuning") }
func BenchmarkExtMixedConfig(b *testing.B)      { benchRun(b, "ExtMixedConfig") }
func BenchmarkExtUtilization(b *testing.B)      { benchRun(b, "ExtUtilization") }
func BenchmarkExtJoinAselB(b *testing.B)        { benchRun(b, "ExtJoinAselB") }
func BenchmarkSelect(b *testing.B)              { benchRun(b, "Select") }
func BenchmarkAggregate(b *testing.B)           { benchRun(b, "Aggregate") }
func BenchmarkExtSpeedup(b *testing.B)          { benchRun(b, "ExtSpeedup") }
func BenchmarkExtGrowingRelations(b *testing.B) { benchRun(b, "ExtGrowingRelations") }
func BenchmarkExtMultiuser(b *testing.B)        { benchRun(b, "ExtMultiuser") }
func BenchmarkMPLSweep(b *testing.B)            { benchRun(b, "MPLSweep") }

// benchRun times the case called name, or each case named name/sub as the
// sub-benchmark sub, and reports the metrics of the last iteration.
func benchRun(b *testing.B, name string) {
	found := false
	for _, c := range benchCases {
		sub, isSub := strings.CutPrefix(c.name, name+"/")
		if c.name != name && !isSub {
			continue
		}
		found = true
		run := func(b *testing.B) {
			var m metrics
			for i := 0; i < b.N; i++ {
				m = c.run(b)
			}
			for unit, v := range m {
				b.ReportMetric(v, unit)
			}
		}
		if isSub {
			b.Run(sub, run)
		} else {
			run(b)
		}
	}
	if !found {
		b.Fatalf("no case named %s", name)
	}
}

// TestSimBaseline runs every case once and requires its metrics to equal
// BENCH_1989.json exactly. It fails on a value that differs, a metric with
// no entry and an entry that no case reports, then prints the replacement
// "benchmarks" object: after a deliberate cost-model change, paste it into
// BENCH_1989.json and name the moved entries in the change description.
func TestSimBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_1989.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct{ Benchmarks map[string]metrics }
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	// Each case owns its machine, so the cases run in parallel.
	results := make([]metrics, len(benchCases))
	if !t.Run("cases", func(t *testing.T) {
		for i, c := range benchCases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				results[i] = c.run(t)
			})
		}
	}) {
		return
	}
	got := make(map[string]metrics)
	for i, c := range benchCases {
		if len(results[i]) > 0 {
			got[c.name] = results[i]
		}
	}
	for _, name := range keys(got, base.Benchmarks) {
		g, w := got[name], base.Benchmarks[name]
		for _, unit := range keys(g, w) {
			gv, inCase := g[unit]
			wv, inBase := w[unit]
			switch {
			case !inBase:
				t.Errorf("%s %s = %v has no entry", name, unit, gv)
			case !inCase:
				t.Errorf("%s %s: entry %v has no case", name, unit, wv)
			case gv != wv:
				t.Errorf("%s %s = %v, want %v", name, unit, gv, wv)
			}
		}
	}
	if t.Failed() {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("replacement \"benchmarks\" object for BENCH_1989.json:\n%s", out)
	}
}

// keys returns the keys of a and b, sorted.
func keys[V any](a, b map[string]V) []string {
	var k []string
	for name := range a {
		k = append(k, name)
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			k = append(k, name)
		}
	}
	slices.Sort(k)
	return k
}

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.OuterN = 10000
	cfg.InnerN = 1000
	return cfg
}

// experiment regenerates one catalog experiment on a fresh harness and
// reports the first data point of its first series; a table reports none.
func experiment(name string) func(testing.TB) metrics {
	return func(tb testing.TB) metrics {
		e, err := experiments.Find(name)
		if err != nil {
			tb.Fatal(err)
		}
		results, err := e.Run(experiments.NewHarness(benchConfig()))
		if err != nil {
			tb.Fatal(err)
		}
		if len(results) == 0 || len(results[0].Series) == 0 {
			return nil
		}
		return metrics{"sim-sec": results[0].Series[0].Points[0].Y}
	}
}

// load declusters tuples on c by hashing unique1.
func load(tb testing.TB, c *gamma.Cluster, name string, tuples []tuple.Tuple) *gamma.Relation {
	tb.Helper()
	rel, err := gamma.Load(c, name, tuples, gamma.HashPart, tuple.Unique1)
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// join loads the scaled joinABprime on c and runs spec as B join A on
// unique1, storing the result.
func join(tb testing.TB, c *gamma.Cluster, spec core.Spec) *core.Report {
	tb.Helper()
	outer := wisconsin.Generate(10000, 1989)
	spec.S = load(tb, c, "A", outer)
	spec.R = load(tb, c, "B", wisconsin.Bprime(outer, 1000))
	spec.RAttr, spec.SAttr = tuple.Unique1, tuple.Unique1
	spec.StoreResult = true
	rep, err := core.Run(c, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func halfMemory(alg core.Algorithm) func(testing.TB) metrics {
	return func(tb testing.TB) metrics {
		rep := join(tb, gamma.NewLocal(8, nil), core.Spec{Alg: alg, MemRatio: 0.5})
		return metrics{"sim-sec": rep.Response.Seconds()}
	}
}

// dynHybrid runs the adaptive Hybrid at half memory with a 4x inner-size
// over-estimate under the degrade fault schedule (memory pressure seeding
// the build short, budget swings revoking and re-granting mid-build).
// Besides the response it reports the adaptation ledger (spills,
// resurrections, revoked pages), which is as deterministic as the response.
func dynHybrid(tb testing.TB) metrics {
	c := gamma.NewLocal(8, nil)
	c.EnableFaults(fault.Spec{Seed: 77, MemPressureRate: 0.5, BudgetSwingRate: 0.5})
	rep := join(tb, c, core.Spec{Alg: core.HybridDyn, MemRatio: 0.5, EstErrorFactor: 4})
	return metrics{
		"sim-sec":       rep.Response.Seconds(),
		"spills":        float64(rep.SpillCount),
		"resurrections": float64(rep.Resurrections),
		"revoked-pages": float64(rep.RevokedPages.Count()),
	}
}

func bucketAnalyzer(skip bool) func(testing.TB) metrics {
	return func(tb testing.TB) metrics {
		rep := join(tb, gamma.NewRemote(2, 4, nil), core.Spec{
			Alg: core.Hybrid, MemRatio: 1.0 / 3, ForceBuckets: 3, SkipAnalyzer: skip,
		})
		return metrics{"sim-sec": rep.Response.Seconds(), "R-overflow-tuples": float64(rep.ROverflowed)}
	}
}

func filterSize(packet int) func(testing.TB) metrics {
	return func(tb testing.TB) metrics {
		params := cost.DefaultParams()
		params.PacketBytes = packet
		c := gamma.NewLocal(8, cost.NewModel(params))
		rep := join(tb, c, core.Spec{Alg: core.Hybrid, MemRatio: 1.0, BitFilter: true})
		return metrics{"sim-sec": rep.Response.Seconds(), "S-dropped": float64(rep.FilterDropped)}
	}
}

func overflowVsBucket(optimistic bool) func(testing.TB) metrics {
	return func(tb testing.TB) metrics {
		spec := core.Spec{Alg: core.Hybrid, MemRatio: 0.7, AllowOverflow: optimistic}
		if !optimistic {
			spec.ForceBuckets = 2
		}
		rep := join(tb, gamma.NewLocal(8, nil), spec)
		return metrics{"sim-sec": rep.Response.Seconds()}
	}
}

func selectRange(tb testing.TB) metrics {
	c := gamma.NewLocal(8, nil)
	rep, _, err := core.RunSelect(c, core.SelectSpec{
		Rel:         load(tb, c, "A", wisconsin.Generate(10000, 1989)),
		Pred:        pred.Range(tuple.Unique1, 0, 1000),
		StoreResult: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return metrics{"sim-sec": rep.Response.Seconds()}
}

func aggregate(tb testing.TB) metrics {
	c := gamma.NewRemote(8, 8, nil)
	rep, _, err := core.RunAggregate(c, core.AggSpec{
		Rel:       load(tb, c, "A", wisconsin.Generate(10000, 1989)),
		GroupAttr: tuple.OnePercent, AggAttr: tuple.Unique1, Fn: core.Avg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return metrics{"sim-sec": rep.Response.Seconds()}
}

// mplSweep runs the workload engine's multiprogramming sweep (12 mixed
// queries under each admission policy at MPL 1..8) and reports the last
// row's (shrink at MPL 8) throughput.
func mplSweep(tb testing.TB) metrics {
	res, err := experiments.NewHarness(benchConfig()).MPLSweep()
	if err != nil {
		tb.Fatal(err)
	}
	qps, err := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	if err != nil {
		tb.Fatal(err)
	}
	return metrics{"qps": qps}
}
