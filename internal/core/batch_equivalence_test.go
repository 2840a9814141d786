package core

import (
	"reflect"
	"testing"

	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
)

// The serial-vs-batched equivalence matrix is the contract of the batched
// engine: a network's run length (netsim.Network.SetRunLength) changes only
// how many packets a sender hands to an exchange per operation — never what
// the simulator charges. Every cell below runs one algorithm in one scenario
// twice, once on a cluster pinned to the legacy packet-at-a-time engine
// (run length 1) and once at the batched default, and requires bit-identical
// reports, result relations, and canonical traces.

// newMatrixCluster builds the local 8-disk cluster of one matrix run with
// its delivery-run length set to runLen.
func newMatrixCluster(runLen int) *gamma.Cluster {
	c := gamma.NewLocal(8, nil)
	c.Net.SetRunLength(runLen)
	return c
}

// batchScenario is one row of the matrix: a cluster mutation applied before
// the workload is loaded, plus optional spec tweaks.
type batchScenario struct {
	name  string
	setup func(t *testing.T, alg Algorithm, c *gamma.Cluster)
	opts  func(sp *Spec)
}

func batchScenarios() []batchScenario {
	return []batchScenario{
		{name: "clean"},
		{
			// Transient disk read errors: retries reorder nothing, but
			// charge retry costs and consume retry budget.
			name: "disk-retry",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{Seed: 21, DiskReadRate: 0.05})
			},
		},
		{
			// Dropped and duplicated packets: the fault schedule is keyed
			// on (src, dst, tag, seq), so the batched transport must
			// produce the identical packet sequence numbering.
			name: "net-faults",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{Seed: 22, NetDropRate: 0.05, NetDupRate: 0.05})
			},
		},
		{
			// A mid-unit crash with mirrors enabled: the run fails over to
			// the ring neighbor and redoes the unit's completed phases.
			name: "failover",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				if err := c.EnableMirrors(); err != nil {
					t.Fatal(err)
				}
				c.EnableFaults(fault.Spec{
					Seed:  99,
					Crash: &fault.CrashPoint{Phase: midUnitCrash[alg], Site: 3},
				})
			},
		},
		{
			// Memory pressure and budget swings mid-phase: revocations and
			// grants land at simulated times, which must not depend on the
			// delivery-run length.
			name: "budget-swing",
			setup: func(t *testing.T, alg Algorithm, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{
					Seed:            7,
					MemPressureRate: 0.5,
					MemShrinkFactor: 0.6,
					MemGrowFactor:   1.4,
					BudgetSwingRate: 0.3,
				})
			},
		},
	}
}

// runMatrixCell executes one (scenario, algorithm) cell at the given run
// length and returns the report.
func runMatrixCell(t *testing.T, sc batchScenario, alg Algorithm, runLen int) *Report {
	t.Helper()
	c := newMatrixCluster(runLen)
	if sc.setup != nil {
		sc.setup(t, alg, c)
	}
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	return runJoin(t, f, alg, 0.25, func(sp *Spec) {
		sp.CollectResults = true
		sp.BitFilter = true
		if sc.opts != nil {
			sc.opts(sp)
		}
	})
}

// TestBatchedEquivalence: for every algorithm in every scenario, the serial
// and batched engines must agree on the result relation (as a canonical
// checksum), the exported trace (byte-for-byte), and the entire cost report
// (struct-for-struct).
func TestBatchedEquivalence(t *testing.T) {
	if netsim.DefaultRunLength <= 1 {
		t.Fatalf("DefaultRunLength = %d; the batched engine is not distinct from the serial one", netsim.DefaultRunLength)
	}
	for _, sc := range batchScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, alg := range allAlgs {
				serial := runMatrixCell(t, sc, alg, 1)
				batched := runMatrixCell(t, sc, alg, netsim.DefaultRunLength)

				if cs, cb := resultChecksum(serial.Results), resultChecksum(batched.Results); cs != cb {
					t.Errorf("%v: result checksums differ: serial %016x batched %016x", alg, cs, cb)
				}
				if js, jb := chromeJSON(t, serial.Trace), chromeJSON(t, batched.Trace); js != jb {
					t.Errorf("%v: canonical trace differs between serial and batched engines", alg)
				}
				// The recorder's internal slices are in scheduler order; the
				// collected results and every simulated metric must be
				// identical.
				serial.Trace, batched.Trace = nil, nil
				if !reflect.DeepEqual(serial, batched) {
					t.Errorf("%v: cost reports differ between engines:\nserial:  %+v\nbatched: %+v", alg, serial, batched)
				}
			}
		})
	}
}
