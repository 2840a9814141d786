// Command benchcheck turns `go test -bench` output into a committed JSON
// baseline and gates regressions against it.
//
// Emit a baseline (reads benchmark output on stdin):
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 . | benchcheck -emit BENCH_1989.json
//
// Gate a run against a baseline (emit the current run, then compare):
//
//	go test -run '^$' -bench . -benchtime 1x -count 3 . | \
//	    benchcheck -emit current.json -against BENCH_1989.json
//
// Two kinds of numbers get two kinds of comparison:
//
//   - Wall-clock ns/op is machine-dependent, so raw ratios are meaningless
//     across hosts. benchcheck normalizes by the median current/baseline
//     ratio over all shared benchmarks — the median captures "this machine
//     is 1.7x slower overall" — and fails any benchmark whose normalized
//     ratio exceeds the tolerance (default 20%). With -count > 1 the
//     fastest run of each benchmark is kept, damping scheduler noise.
//
//   - Custom metrics (sim-sec, qps, ...) are simulated results: they are
//     machine-independent and byte-deterministic, so they must match the
//     baseline exactly. A drifted sim-sec is a correctness change hiding in
//     a perf gate, and is reported as such.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's numbers: minimum wall-clock per op across the
// parsed runs, plus every custom metric (unit -> value).
type Bench struct {
	WallNs  float64            `json:"wall_ns"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the committed BENCH_<seed>.json shape.
type Baseline struct {
	Note       string           `json:"note"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkFigure5-8   1   123456789 ns/op   12.35 sim-sec
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op(.*)$`)

// metricPair matches one "value unit" metric segment after ns/op.
var metricPair = regexp.MustCompile(`(\S+) ([A-Za-z][\w./-]*)`)

func parse(r *os.File) (map[string]Bench, error) {
	out := make(map[string]Bench)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		wall, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchcheck: bad ns/op %q for %s: %w", m[2], name, err)
		}
		metrics := make(map[string]float64)
		for _, mm := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcheck: bad metric %q %q for %s: %w", mm[1], mm[2], name, err)
			}
			metrics[mm[2]] = v
		}
		prev, seen := out[name]
		if seen {
			// -count > 1: keep the fastest wall clock, and insist the
			// simulated metrics agree between repetitions — they are
			// deterministic, so a mismatch is a bug worth failing on here.
			for unit, v := range metrics {
				if pv, ok := prev.Metrics[unit]; ok && pv != v {
					return nil, fmt.Errorf("benchcheck: %s metric %s differs between repetitions (%v vs %v): simulator nondeterminism",
						name, unit, pv, v)
				}
			}
			if wall < prev.WallNs {
				prev.WallNs = wall
			}
			for unit, v := range metrics {
				prev.Metrics[unit] = v
			}
			out[name] = prev
			continue
		}
		out[name] = Bench{WallNs: wall, Metrics: metrics}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchcheck: no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	return out, nil
}

func writeBaseline(path string, benches map[string]Bench) error {
	b := Baseline{
		Note:       "gammajoin benchmark baseline; regenerate with `make bench-baseline`",
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchcheck: parsing %s: %w", path, err)
	}
	return &b, nil
}

// compare gates current against base, returning the failure messages.
// simOnly skips the wall-clock gate and checks only the simulated metrics —
// the mode CI uses, where machine noise would make wall-clock ratios
// meaningless but simulated results must still match the baseline exactly.
func compare(base, cur map[string]Bench, tolerance, minWallNs float64, simOnly bool) []string {
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	var fails []string
	// Median wall-clock ratio over shared benchmarks = this machine's
	// overall speed relative to the baseline machine.
	var ratios []float64
	for _, name := range names {
		if c, ok := cur[name]; ok && base[name].WallNs > 0 {
			ratios = append(ratios, c.WallNs/base[name].WallNs)
		}
	}
	if len(ratios) == 0 {
		return []string{"no shared benchmarks between baseline and current run"}
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	fmt.Printf("benchcheck: %d shared benchmarks, median wall ratio %.3fx\n", len(ratios), median)

	for _, name := range names {
		c, ok := cur[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: present in baseline, missing from current run", name))
			continue
		}
		b := base[name]
		// Below the floor, a few-iteration wall-clock sample is dominated
		// by scheduler and GC luck rather than code: such benchmarks are
		// exempt from the wall gate (their simulated metrics are still
		// matched exactly below, and they still count toward the median).
		if !simOnly && b.WallNs >= minWallNs && b.WallNs > 0 {
			norm := c.WallNs / b.WallNs / median
			if norm > 1+tolerance {
				fails = append(fails, fmt.Sprintf("%s: wall-clock regressed %.0f%% beyond the machine-normalized baseline (%.2gns -> %.2gns, normalized %.2fx)",
					name, 100*(norm-1), b.WallNs, c.WallNs, norm))
			}
		}
		var units []string
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			cv, ok := c.Metrics[unit]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: metric %s missing from current run", name, unit))
				continue
			}
			if cv != b.Metrics[unit] {
				fails = append(fails, fmt.Sprintf("%s: simulated metric %s drifted from baseline (%v -> %v); deterministic results must match exactly",
					name, unit, b.Metrics[unit], cv))
			}
		}
	}
	return fails
}

func main() {
	emit := flag.String("emit", "", "write the parsed benchmarks to this JSON file")
	against := flag.String("against", "", "compare the parsed benchmarks against this baseline JSON")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional wall-clock regression after machine normalization")
	simOnly := flag.Bool("sim-only", false, "gate only the simulated metrics (exact match); skip the wall-clock comparison")
	minWall := flag.Float64("min-wall-ns", 0, "skip the wall-clock gate for benchmarks whose baseline is below this many ns/op (too fast to time reliably); simulated metrics are still matched exactly")
	flag.Parse()
	if *emit == "" && *against == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: need -emit and/or -against")
		os.Exit(2)
	}
	benches, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *emit != "" {
		if err := writeBaseline(*emit, benches); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(benches), *emit)
	}
	if *against != "" {
		base, err := readBaseline(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fails := compare(base.Benchmarks, benches, *tolerance, *minWall, *simOnly)
		for _, f := range fails {
			fmt.Printf("benchcheck: FAIL %s\n", f)
		}
		if len(fails) > 0 {
			os.Exit(1)
		}
		fmt.Println("benchcheck: OK")
	}
}
