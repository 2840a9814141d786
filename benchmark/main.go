// Command benchmark measures what the join simulator costs to run on this
// host, at paper scale (a 100,000-tuple outer relation joined with its
// 10,000-tuple Bprime subset), over four workloads. It drives the
// simulator's own packages, checks every join against an oracle that does
// not use the engine, and prints each metric with its unit; the last line of
// a workload run is one JSON object with the result. See README.md.
//
//	bash benchmark/run.sh                                  # every workload, one process each
//	bash benchmark/run.sh -workload multiuser -seed 7      # one workload
//	bash benchmark/run.sh -trace 1                         # per-layer metrics and spans
//	bash benchmark/run.sh -compare A/results.json B/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Paper scale: the joinABprime relations.
const (
	outerN = 100000
	innerN = 10000
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload in this process (default: every workload, each in its own process)")
		seed     = flag.Uint64("seed", 1989, "seed of the relations and of the multiuser query streams")
		seconds  = flag.Float64("seconds", 25, "how long a workload run measures")
		traced   = flag.Int("trace", 0, "1 runs traced: per-layer metrics, spans and layer replays instead of end-to-end metrics")
		out      = flag.String("out", ".bench_build/results", "directory for result, span and layer files")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments and exit 1 if a metric moved beyond its bound")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args(), os.Stdout))
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *traced, *out))
	}
	cfg := config{
		workload: *workload,
		outerN:   outerN,
		innerN:   innerN,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
	}
	if _, err := runOne(cfg, *out, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
}

// runOne runs one workload, writes its files into outDir and prints its
// metrics, ending with the result line.
func runOne(cfg config, outDir string, stdout io.Writer) (*result, error) {
	r, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res, err := r.result()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, cfg.workload)
	if err := writeJSON(base+".json", res); err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := r.tr.writeTSV(base + ".spans.tsv"); err != nil {
			return nil, err
		}
		layers := struct {
			Workload string                 `json:"workload"`
			Seed     uint64                 `json:"seed"`
			Metrics  map[string]metricValue `json:"metrics"`
			Spans    map[string]spanTotal   `json:"spans"`
		}{cfg.workload, cfg.seed, res.Metrics, r.tr.totals()}
		if err := writeJSON(base+".layers.json", layers); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Fprintf(stdout, "%-16s %-34s %16.4f %s", cfg.workload, d.Name, v.Value, v.Unit)
		if d.Name == "join_ms_p50" || d.Name == "join_ms_p95" {
			fmt.Fprintf(stdout, " (n=%d)", len(r.untraced.samples))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-16s %d joins attempted, %d failed, %d untraced passes\n",
		cfg.workload, res.Attempted, res.Failed, r.untraced.passes)
	fmt.Fprintf(stdout, "%-16s host probe %.2f ms (median); times are scaled to %.2f ms\n",
		cfg.workload, median(r.probeMs), probeRefMs)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

// runAll runs every workload in a process of its own, so no heap or pool
// state carries from one workload into the next, and gathers the results
// into outDir/results.json. It returns the exit code.
func runAll(seed uint64, seconds float64, traced int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Seed: seed, Seconds: seconds, Trace: traced == 1, Workloads: make(map[string]*result)}
	code := 0
	for _, w := range workloadNames {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced), "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			code = 1
			continue
		}
		var res result
		if err := readJSON(filepath.Join(outDir, w+".json"), &res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		set.Workloads[w] = &res
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("wrote", path)
	return code
}
