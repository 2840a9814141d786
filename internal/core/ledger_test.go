package core

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
)

// TestPhaseLedger pins the one phase ledger: every PhaseStat of the
// successful attempt is a view over that phase's trace spans. It covers
// every plan-digest cell plus a mirrored failover (redo and detection
// phases) and a full restart (an abandoned attempt on the same recorder).
func TestPhaseLedger(t *testing.T) {
	forEachPlanCell(t, func(name string, rep *Report) { checkLedger(t, name, rep) })

	failover := crashRun(t, Grace, &fault.CrashPoint{Phase: midUnitCrash[Grace], Site: 3}, true)
	if failover.FailedOver == 0 || failover.PhasesRedone == 0 {
		t.Fatalf("failover cell: failedOver %d redone %d, want both > 0", failover.FailedOver, failover.PhasesRedone)
	}
	checkLedger(t, "failover/grace", failover)

	restart := crashRun(t, Hybrid, &fault.CrashPoint{Phase: midUnitCrash[Hybrid], Site: 3}, false)
	if restart.Restarts == 0 {
		t.Fatal("restart cell did not restart")
	}
	checkLedger(t, "restart/hybrid", restart)
}

// checkLedger asserts, for each phase i of rep's last attempt, that
// PerSite has one entry per cluster site and PerSite[site] is the sum of
// CPU, disk and net over the phase's spans at that site (zero where none
// ran), Work is the largest per-site elapsed time, and Sched is the
// scheduler span's duration; and that the phases' elapsed times sum to the
// response.
func checkLedger(t *testing.T, name string, rep *Report) {
	t.Helper()
	n := len(rep.Trace.SiteLabels()) // one trace track per cluster site
	last := rep.Trace.Attempt()
	sites := map[int][]cost.Acct{} // phase ordinal -> span sums by site
	sched := map[int]cost.SimNs{}
	for _, sp := range rep.Trace.Spans() {
		if sp.Attempt != last {
			continue
		}
		if sp.Site < 0 {
			sched[sp.Phase] = sp.Dur
			continue
		}
		if sites[sp.Phase] == nil {
			sites[sp.Phase] = make([]cost.Acct, n)
		}
		a := &sites[sp.Phase][sp.Site]
		a.CPU += sp.CPU
		a.Disk += sp.Disk
		a.Net += sp.Net
	}
	if len(sched) != len(rep.Phases) {
		t.Fatalf("%s: %d scheduler spans for %d phases", name, len(sched), len(rep.Phases))
	}
	var total cost.SimNs
	for i, ph := range rep.Phases {
		want := sites[i]
		if want == nil { // no worker spans: a detection phase
			want = make([]cost.Acct, n)
		}
		if len(ph.PerSite) != n {
			t.Errorf("%s: phase %d %q: %d PerSite entries for %d sites", name, i, ph.Name, len(ph.PerSite), n)
			continue
		}
		var work cost.SimNs
		for site, w := range want {
			if got := ph.PerSite[site]; got.CPU != w.CPU || got.Disk != w.Disk || got.Net != w.Net {
				t.Errorf("%s: phase %d %q site %d: PerSite %+v, spans sum to %+v", name, i, ph.Name, site, got, w)
			}
			work = max(work, w.Elapsed())
		}
		if ph.Work != work {
			t.Errorf("%s: phase %d %q: Work %d, slowest span site %d", name, i, ph.Name, ph.Work, work)
		}
		if ph.Sched != sched[i] {
			t.Errorf("%s: phase %d %q: Sched %d, scheduler span %d", name, i, ph.Name, ph.Sched, sched[i])
		}
		total += ph.Elapsed()
	}
	if total.Dur() != rep.Response {
		t.Errorf("%s: phases sum to %v, response %v", name, total.Dur(), rep.Response)
	}
}
