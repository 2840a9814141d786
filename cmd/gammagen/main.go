// Command gammagen generates Wisconsin benchmark relations and writes them
// as binary fragment files, one per simulated disk site, exactly as a Gamma
// load would decluster them. It prints per-fragment statistics so the
// declustering behaviour (hash balance, range boundaries, skew) is visible.
//
// Usage:
//
//	gammagen -n 100000 -strategy hash -attr unique1 -out /tmp/wisc
//	gammagen -n 100000 -skewed -strategy range -attr unique3 -out /tmp/skew
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func main() {
	var (
		n      = flag.Int("n", 100000, "relation cardinality")
		seed   = flag.Uint64("seed", 1989, "generator seed")
		skewed = flag.Bool("skewed", false, "draw the unique3/normal attribute from the paper's normal distribution")
		strat  = flag.String("strategy", "hash", "declustering strategy: roundrobin, hash, or range")
		attr   = flag.String("attr", "unique1", "partitioning attribute")
		disks  = flag.Int("disks", 8, "number of disk sites")
		out    = flag.String("out", "", "output directory (omit for a dry run with stats only)")
		name   = flag.String("name", "wisconsin", "relation name")
	)
	flag.Parse()

	var strategy gamma.Strategy
	switch *strat {
	case "roundrobin":
		strategy = gamma.RoundRobin
	case "hash":
		strategy = gamma.HashPart
	case "range":
		strategy = gamma.RangeUniform
	default:
		fmt.Fprintf(os.Stderr, "gammagen: unknown strategy %q\n", *strat)
		os.Exit(2)
	}
	attrIdx, err := tuple.AttrIndex(*attr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gammagen:", err)
		os.Exit(2)
	}

	var tuples []tuple.Tuple
	if *skewed {
		tuples = wisconsin.GenerateSkewed(*n, *seed)
	} else {
		tuples = wisconsin.Generate(*n, *seed)
	}

	c := gamma.NewLocal(*disks, cost.Default())
	rel, err := gamma.Load(c, *name, tuples, strategy, attrIdx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gammagen:", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d tuples (%d bytes), %s-declustered on %s across %d disks\n",
		*name, rel.N, rel.Bytes(), strategy, *attr, *disks)
	for site, f := range rel.Fragments {
		fmt.Printf("  site %d: %6d tuples, %4d pages", site, f.Len(), f.Pages())
		if *out != "" {
			path := filepath.Join(*out, fmt.Sprintf("%s.f%d.bin", *name, site))
			nBytes, err := writeFragment(path, f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "\ngammagen:", err)
				os.Exit(1)
			}
			fmt.Printf(" -> %s (%d bytes)", path, nBytes)
		}
		fmt.Println()
	}
}

// writeFragment serializes a fragment's tuples in the 208-byte wire format.
func writeFragment(path string, f interface {
	Scan(a *cost.Acct, fn func(t *tuple.Tuple) bool)
}) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	file, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	w := bufio.NewWriter(file)
	var a cost.Acct
	var total int64
	var buf []byte
	f.Scan(&a, func(t *tuple.Tuple) bool {
		buf = t.Marshal(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return false
		}
		total += int64(len(buf))
		return true
	})
	if err := w.Flush(); err != nil {
		return total, err
	}
	return total, nil
}
