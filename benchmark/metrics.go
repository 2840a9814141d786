package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported number. BENCHMARK.json at the repository root
// carries the same tables; TestBenchmarkJSONMatchesTables keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // tolerated relative worsening; end-to-end only
}

// endToEnd are the metrics a user of the simulator sees: host cost per join
// at paper scale. They always come from the untraced passes.
var endToEnd = []metricDef{
	{"tuples_per_s", "tuples/s", "higher", 0.20},
	{"join_ms_p50", "ms", "lower", 0.20},
	{"join_ms_p95", "ms", "lower", 0.20},
	{"cpu_ms_per_join", "ms", "lower", 0.20},
	{"alloc_mb_per_join", "MB", "lower", 0.20},
	{"allocs_per_join", "count", "lower", 0.15},
	{"peak_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's numbers, named after the module that does
// the work. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "wisconsin.generate_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "gamma.load_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "gamma.load_allocs_per_tuple", Unit: "allocs/tuple", Better: "lower"},
	{Name: "gamma.ht_insert_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "gamma.ht_probe_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "gamma.overflow_clears_per_join", Unit: "count", Better: "lower"},
	{Name: "gamma.overflow_tuples_per_join", Unit: "tuples", Better: "lower"},
	{Name: "gamma.build_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "split.route_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "netsim.send_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "netsim.allocs_per_packet", Unit: "allocs/packet", Better: "lower"},
	{Name: "netsim.packets_remote_per_join", Unit: "packets", Better: "lower"},
	{Name: "netsim.packets_local_per_join", Unit: "packets", Better: "lower"},
	{Name: "netsim.local_fraction", Unit: "ratio", Better: "higher"},
	{Name: "netsim.retransmits_per_join", Unit: "packets", Better: "lower"},
	{Name: "netsim.duplicates_per_join", Unit: "packets", Better: "lower"},
	{Name: "bitfilter.ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "bitfilter.dropped_per_join", Unit: "tuples", Better: "higher"},
	{Name: "bitfilter.drop_ratio", Unit: "ratio", Better: "higher"},
	{Name: "wiss.append_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "wiss.scan_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "wiss.sort_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "wiss.sort_allocs_per_page", Unit: "allocs/page", Better: "lower"},
	{Name: "disk.pages_read_per_join", Unit: "pages", Better: "lower"},
	{Name: "disk.pages_written_per_join", Unit: "pages", Better: "lower"},
	{Name: "disk.read_retries_per_join", Unit: "count", Better: "lower"},
	{Name: "disk.mirror_reads_per_join", Unit: "pages", Better: "lower"},
	{Name: "disk.mirror_writes_per_join", Unit: "pages", Better: "lower"},
	{Name: "core.phases_per_join", Unit: "count", Better: "lower"},
	{Name: "core.restarts_per_join", Unit: "count", Better: "lower"},
	{Name: "core.failovers_per_join", Unit: "count", Better: "lower"},
	{Name: "core.phases_redone_per_join", Unit: "count", Better: "lower"},
	{Name: "core.wasted_sim_s_per_join", Unit: "s", Better: "lower"},
	{Name: "core.sim_s_sum", Unit: "s", Better: "lower"},
	{Name: "core.unattributed_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.self_ms_per_pass", Unit: "ms", Better: "lower"},
	{Name: "sched.mean_wait_sim_s", Unit: "s", Better: "lower"},
	{Name: "sched.mean_ratio_at_admission", Unit: "ratio", Better: "higher"},
	{Name: "sched.peak_mpl", Unit: "count", Better: "higher"},
	{Name: "sched.qps_sim", Unit: "1/s", Better: "higher"},
	{Name: "trace.spans_per_join", Unit: "count", Better: "lower"},
	{Name: "trace.chrome_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "trace.chrome_allocs_per_span", Unit: "allocs/span", Better: "lower"},
	{Name: "trace.spans_tsv_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "trace.metrics_tsv_ns_per_sample", Unit: "ns/sample", Better: "lower"},
	{Name: "profile.from_report_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "profile.write_text_ns_per_span", Unit: "ns/span", Better: "lower"},
	{Name: "bench.host_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// metricValue is one number as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints and the file it writes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultSet is the file the all-workloads run writes and -compare reads.
type resultSet struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

// fill copies the values named by defs out of vals, in table order. A name
// missing from vals is a bug in the benchmark, not a measurement.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// median returns the middle of xs (the mean of the two middles for an even
// count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of ds in milliseconds.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return ms(s[rank-1])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
