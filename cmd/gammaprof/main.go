// Command gammaprof answers "where did the time go, and why did it change?"
// for recorded gammajoin runs — offline, from exported trace files.
//
// Usage:
//
//	gammaprof [-tsv] [-o out] report <run>    # blame + critical path + stragglers
//	gammaprof [-o out] diff <a> <b>           # per-phase/resource/site deltas
//	gammaprof <run>                           # shorthand for report
//
// A <run> is either a spans TSV (q3.spans.tsv, hybrid_r0.5_local_hpja.spans.tsv
// — written by `gammabench -mpl -trace-dir` and `-exp ... -trace-dir`) or a
// precomputed profile TSV (*.prof.tsv, written by `gammabench -prof-dir` or
// `gammaprof -tsv report`). Profiling a spans TSV prices the fault carve-outs
// with the default cost model; the caps in the blame engine keep the
// accounting identity exact regardless.
//
// All output is fixed-layout and byte-deterministic — two same-seed runs
// profile to identical bytes, and gammabench's TestGolden checks that the
// offline profile of every spans TSV equals the in-process report. See
// docs/OBSERVABILITY.md, "Where did the time go".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gammajoin/internal/cost"
	"gammajoin/internal/profile"
)

func main() {
	tsv := flag.Bool("tsv", false, "with report: emit the machine-readable profile TSV instead of text")
	out := flag.String("o", "", "write output to this file instead of stdout")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "report":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		err = withOutput(*out, func(w io.Writer) error { return report(args[1], *tsv, w) })
	case "diff":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		err = withOutput(*out, func(w io.Writer) error { return diff(args[1], args[2], w) })
	default:
		if len(args) != 1 {
			usage()
			os.Exit(2)
		}
		err = withOutput(*out, func(w io.Writer) error { return report(args[0], *tsv, w) })
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gammaprof:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  gammaprof [-tsv] [-o out] report <run>
  gammaprof [-o out] diff <a> <b>
  gammaprof <run>

<run>, <a>, <b>: a spans TSV (*.spans.tsv) or a profile TSV (*.prof.tsv)
`)
}

// withOutput routes the report to -o or stdout.
func withOutput(path string, emit func(io.Writer) error) error {
	if path == "" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// load profiles one input file (either supported format).
func load(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := profile.Load(f, cost.Default())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func report(path string, tsv bool, w io.Writer) error {
	p, err := load(path)
	if err != nil {
		return err
	}
	if tsv {
		return p.WriteTSV(w)
	}
	return p.WriteText(w)
}

func diff(aPath, bPath string, w io.Writer) error {
	a, err := load(aPath)
	if err != nil {
		return err
	}
	b, err := load(bPath)
	if err != nil {
		return err
	}
	return profile.Diff(a, b).WriteText(w)
}
