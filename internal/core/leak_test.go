package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
)

// These are the leakcheck analyzer's claims made dynamic: every goroutine
// runPhase launches is joined before the run returns, on the happy path and
// on every abort path — scripted site crashes absorbed by restart, crashes
// absorbed by mirrored failover, and errors surfaced mid-query. Run under
// -race (make race / make deflake), a leaked worker also shows up as a data
// race on the phase accounts, so these tests gate both the count and the
// synchronization. The same runs check packet conservation: every packet
// slab a Run takes is handed back by the time it returns.

// quiesce waits for the goroutine count to return to the baseline, giving
// the runtime a moment to retire exiting goroutines. (Polling the count is
// inherently racy-by-design; the deadline only bounds the wait.)
func quiesce(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// checkSlabs fails the test unless the process holds as many packet slabs
// as it did before the run: every packet carved was handed back.
func checkSlabs(t *testing.T, alg Algorithm, before int64) {
	t.Helper()
	if out := netsim.SlabsOut() - before; out != 0 {
		t.Errorf("%v: %d packet slabs outstanding after Run", alg, out)
	}
}

// TestNoGoroutineLeakOnCrashRestart: a scripted mid-unit crash aborts the
// phase at entry and climbs to the full-restart rung; nothing may leak.
func TestNoGoroutineLeakOnCrashRestart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, alg := range allAlgs {
		slabs := netsim.SlabsOut()
		rep := crashRun(t, alg, &fault.CrashPoint{Phase: midUnitCrash[alg], Site: 3}, false)
		checkSlabs(t, alg, slabs)
		if rep.Restarts == 0 {
			t.Errorf("%v: crash did not trigger a restart", alg)
		}
	}
	quiesce(t, baseline)
}

// TestNoGoroutineLeakOnFailover: the same crashes absorbed by chained-
// declustered mirrors — the failover redo path must also quiesce.
func TestNoGoroutineLeakOnFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, alg := range allAlgs {
		slabs := netsim.SlabsOut()
		rep := crashRun(t, alg, &fault.CrashPoint{Phase: midUnitCrash[alg], Site: 3}, true)
		checkSlabs(t, alg, slabs)
		if rep.FailedOver == 0 {
			t.Errorf("%v: crash was not absorbed by failover", alg)
		}
	}
	quiesce(t, baseline)
}

// TestNoGoroutineLeakOnSpecError: a Run that fails validation before any
// phase launches must not leave anything behind either.
func TestNoGoroutineLeakOnSpecError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 1000, gamma.HashPart, tuple.Unique1)
	spec := Spec{Alg: Algorithm(99), R: f.r, S: f.s, RAttr: tuple.Unique1, SAttr: tuple.Unique1, MemBytes: 1 << 20}
	if _, err := Run(c, spec); err == nil {
		t.Fatal("bogus algorithm should error")
	}
	quiesce(t, baseline)
}

// TestRetryBudgetExitLeavesClusterClean: a retry budget that runs out
// mid-join aborts each of the five algorithms at a later phase barrier. The
// abort returns no report, and it must leave no temp file live and no phase
// worker running.
func TestRetryBudgetExitLeavesClusterClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := gamma.NewLocal(4, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	c.EnableFaults(fault.Spec{Seed: 5, DiskReadRate: 0.5, RetryBudget: 20})
	for _, alg := range allAlgs {
		slabs := netsim.SlabsOut()
		rep, err := Run(c, Spec{
			Alg: alg, R: f.r, S: f.s,
			RAttr: tuple.Unique1, SAttr: tuple.Unique1,
			MemRatio: 0.25,
		})
		checkSlabs(t, alg, slabs)
		t.Logf("%v: %v", alg, err)
		if !errors.Is(err, fault.ErrRetryBudgetExhausted) {
			t.Fatalf("%v: got %v, want fault.ErrRetryBudgetExhausted", alg, err)
		}
		if rep != nil {
			t.Fatalf("%v: aborted run returned a report", alg)
		}
		if live := c.LiveTempFiles(); len(live) != 0 {
			t.Fatalf("%v: %d temp files live after the abort: %v", alg, len(live), live)
		}
	}
	quiesce(t, baseline)
}

// TestPacketSlabsReturnOnFaultedRemoteRun: a remote non-HPJA join with bit
// filters, dropped and duplicated packets and stored results sends packets
// through every role of a phase; each of the five algorithms must hand back
// every packet slab it took.
func TestPacketSlabsReturnOnFaultedRemoteRun(t *testing.T) {
	c := gamma.NewRemote(4, 4, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique2) // partition != join attr
	c.EnableFaults(fault.Spec{Seed: 11, NetDropRate: 0.05, NetDupRate: 0.05})
	for _, alg := range allAlgs {
		slabs := netsim.SlabsOut()
		rep := runJoin(t, f, alg, 0.25, func(sp *Spec) { sp.BitFilter = true })
		checkSlabs(t, alg, slabs)
		if rep.ResultCount != 400 {
			t.Errorf("%v: result count %d, want 400", alg, rep.ResultCount)
		}
		if rep.Net.PacketsRetransmitted == 0 || rep.Net.PacketsDuplicated == 0 {
			t.Errorf("%v: no net faults fired (%d retransmitted, %d duplicated)",
				alg, rep.Net.PacketsRetransmitted, rep.Net.PacketsDuplicated)
		}
		if rep.FilterDropped == 0 {
			t.Errorf("%v: bit filters dropped nothing", alg)
		}
	}
}
