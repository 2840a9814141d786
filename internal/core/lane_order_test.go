package core

import (
	"fmt"
	"sync"
	"testing"

	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
)

// laneCrashPhase is the phase each algorithm's scripted crash lands on in
// TestDrainedPacketsInSourceSequenceOrder: inside a redo-able unit where
// one exists, so the failover redoes completed phases.
var laneCrashPhase = map[Algorithm]int{SortMerge: 1, Simple: 1, Grace: 3, Hybrid: 1, HybridDyn: 1}

// TestDrainedPacketsInSourceSequenceOrder: every consumer and writer of
// every phase sees its packets strictly ordered by (Src, Seq) — the order
// the exchange's per-source lanes give without a sort, and the order the
// processing (overflow, spill and file-append decisions) relies on for
// determinism — for all five algorithms on a remote 4+4 bit-filtered
// cluster with dropped and duplicated packets and one mirrored failover,
// at delivery-run lengths 1 and 32.
func TestDrainedPacketsInSourceSequenceOrder(t *testing.T) {
	var (
		mu             sync.Mutex
		drains, pkts   int
		sources        map[int]bool
		firstViolation string
	)
	drainHook = func(batches []*netsim.Batch) {
		mu.Lock()
		defer mu.Unlock()
		drains++
		pkts += len(batches)
		for i, b := range batches {
			sources[b.Src] = true
			if i == 0 || firstViolation != "" {
				continue
			}
			if p := batches[i-1]; p.Src > b.Src || p.Src == b.Src && p.Seq >= b.Seq {
				firstViolation = fmt.Sprintf("packet %d (src %d, seq %d) follows (src %d, seq %d) at dst %d",
					i, b.Src, b.Seq, p.Src, p.Seq, b.Dst)
			}
		}
	}
	t.Cleanup(func() { drainHook = nil })

	for _, runLen := range []int{1, 32} {
		for _, alg := range allAlgs {
			c := gamma.NewRemote(4, 4, nil)
			c.Net.SetRunLength(runLen)
			if err := c.EnableMirrors(); err != nil {
				t.Fatal(err)
			}
			site := 5 // a diskless join site
			if alg == SortMerge {
				site = 1 // sort-merge joins at the disk sites
			}
			c.EnableFaults(fault.Spec{
				Seed:        23,
				NetDropRate: 0.05,
				NetDupRate:  0.05,
				Crash:       &fault.CrashPoint{Phase: laneCrashPhase[alg], Site: site},
			})
			f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique2)
			drains, pkts, sources, firstViolation = 0, 0, map[int]bool{}, ""
			rep := runJoin(t, f, alg, 0.25, func(sp *Spec) { sp.BitFilter = true })

			name := fmt.Sprintf("run length %d, %v", runLen, alg)
			if firstViolation != "" {
				t.Errorf("%s: drained out of (Src, Seq) order: %s", name, firstViolation)
			}
			if rep.FailedOver != 1 {
				t.Errorf("%s: %d failovers, want the scripted one", name, rep.FailedOver)
			}
			if rep.Net.PacketsRetransmitted == 0 || rep.Net.PacketsDuplicated == 0 {
				t.Errorf("%s: no dropped or no duplicated packets (%+v)", name, rep.Net)
			}
			if drains == 0 || pkts < 100 || len(sources) < 4 {
				t.Errorf("%s: the check saw %d drains, %d packets from %d sources", name, drains, pkts, len(sources))
			}
		}
	}
}
