package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles compares the end-to-end metrics of two results.json files,
// workload by workload, and returns the exit code: 0 when every metric of
// every workload moved by at most its bound in either direction, 1 when one
// did, was missing, or a run had failed joins, 2 on a usage or read error.
// Two runs of one commit should agree within the bounds; between a parent
// and a change, only a "worse" verdict is a regression.
func compareFiles(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: benchmark -compare A/results.json B/results.json")
		return 2
	}
	var a, b resultSet
	for i, set := range []*resultSet{&a, &b} {
		if err := readJSON(args[i], set); err != nil {
			fmt.Fprintln(w, "compare:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-16s missing from %s\n", name, missingSide(ra == nil, rb == nil))
			code = 1
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed joins: A %d, B %d\n", name, ra.Failed, rb.Failed)
			code = 1
		}
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-18s missing from %s\n", name, d.Name, missingSide(!okA, !okB))
				code = 1
				continue
			}
			delta, verdict := judge(d, va.Value, vb.Value)
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				name, d.Name, va.Value, vb.Value, 100*delta, 100*d.Bound, verdict)
		}
	}
	return code
}

// judge returns B's relative change from A and whether it is within the
// metric's bound, or worse or better beyond it.
func judge(d metricDef, a, b float64) (float64, string) {
	delta := ratio(b-a, a)
	if a == 0 && b != 0 {
		delta = math.Inf(1)
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return delta, "worse"
	case -worse > d.Bound:
		return delta, "better"
	}
	return delta, "ok"
}

func missingSide(a, b bool) string {
	switch {
	case a && b:
		return "A and B"
	case a:
		return "A"
	}
	return "B"
}
