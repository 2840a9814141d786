package sched

import (
	"bytes"
	"testing"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
)

// synthExec fabricates reports with a known phase schedule, so engine math
// is checkable by hand: each query runs `phases` phases of `workNs` at site
// 0 with `schedNs` of scheduling latency.
func synthExec(schedNs, workNs int64, phases int) Exec {
	return func(q *Query, grant int64) (*core.Report, error) {
		rep := &core.Report{Alg: q.Alg}
		var total int64
		for i := 0; i < phases; i++ {
			var a cost.Acct
			a.AddCPU(cost.Ns(workNs))
			rep.Phases = append(rep.Phases, gamma.PhaseStat{
				Name:    "synthetic",
				Work:    cost.Ns(workNs),
				Sched:   cost.Ns(schedNs),
				PerSite: []cost.Acct{a},
			})
			total += workNs + schedNs
		}
		rep.Response = time.Duration(total)
		return rep, nil
	}
}

func mustRun(t *testing.T, cfg Config, queries []*Query) *Result {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Two identical single-phase queries sharing site 0: the latecomer halves
// the first query's rate, and the hand-computed processor-sharing schedule
// must fall out exactly.
func TestEngineProcessorSharing(t *testing.T) {
	queries := []*Query{
		{ID: 1, ArriveNs: 0, DemandBytes: 10},
		{ID: 2, ArriveNs: 50, DemandBytes: 10},
	}
	res := mustRun(t, Config{
		Pool: gamma.NewMemPool(1 << 20),
		Exec: synthExec(0, 100, 1),
	}, queries)
	// t in [0,50): q1 alone, 50 of 100 done. t in [50,150): both resident,
	// each progresses 50 -> q1 finishes at 150. t in [150,200): q2 alone,
	// finishes its last 50 at 200.
	if got := res.Queries[0].ResponseNs; got != 150 {
		t.Errorf("q1 response = %d, want 150", got)
	}
	if got := res.Queries[1].ResponseNs; got != 150 {
		t.Errorf("q2 response = %d, want 150 (finish 200 - arrive 50)", got)
	}
	if res.MakespanNs != 200 {
		t.Errorf("makespan = %d, want 200", res.MakespanNs)
	}
	if res.PeakMPL != 2 || res.SitePeak[0] != 2 {
		t.Errorf("peaks: mpl %d site0 %d, want 2/2", res.PeakMPL, res.SitePeak[0])
	}
}

// Scheduling latency does not contend: two queries whose phases are pure
// sched overlap completely.
func TestEngineSchedDoesNotContend(t *testing.T) {
	queries := []*Query{
		{ID: 1, ArriveNs: 0, DemandBytes: 10},
		{ID: 2, ArriveNs: 0, DemandBytes: 10},
	}
	res := mustRun(t, Config{
		Pool: gamma.NewMemPool(1 << 20),
		Exec: synthExec(100, 0, 1),
	}, queries)
	for i, q := range res.Queries {
		if q.ResponseNs != 100 {
			t.Errorf("q%d response = %d, want 100 (sched runs unshared)", i+1, q.ResponseNs)
		}
	}
}

// FIFO: full grants, no overtaking — the second full-demand query waits for
// the whole pool even though a later, smaller query would fit.
func TestFIFOFullGrantNoOvertake(t *testing.T) {
	pool := gamma.NewMemPool(100 << 10)
	queries := []*Query{
		{ID: 1, ArriveNs: 0, DemandBytes: 100 << 10},
		{ID: 2, ArriveNs: 10, DemandBytes: 100 << 10},
		{ID: 3, ArriveNs: 20, DemandBytes: 10 << 10},
	}
	res := mustRun(t, Config{Pool: pool, Policy: FIFO, Exec: synthExec(0, 1000, 1)}, queries)
	for i, q := range res.Queries {
		if q.RatioAtAdmission != 1.0 {
			t.Errorf("q%d ratio = %v, want 1.0 under fifo", i+1, q.RatioAtAdmission)
		}
	}
	// q2 admitted exactly when q1 finishes; q3 after q2 despite fitting.
	q1, q2, q3 := res.Queries[0], res.Queries[1], res.Queries[2]
	if q2.AdmitNs != q1.FinishNs {
		t.Errorf("q2 admitted at %d, want q1's finish %d", q2.AdmitNs, q1.FinishNs)
	}
	if q3.AdmitNs < q2.FinishNs {
		t.Errorf("q3 overtook q2: admit %d < q2 finish %d", q3.AdmitNs, q2.FinishNs)
	}
	if res.PeakMPL != 1 {
		t.Errorf("fifo with full-pool demands: peak MPL %d, want 1", res.PeakMPL)
	}
}

// Fair with a bounded MPL grants pool/MPL slices, so every query runs at the
// degraded ratio and all of them are resident at once.
func TestFairEqualSlices(t *testing.T) {
	pool := gamma.NewMemPool(400 << 10)
	queries := []*Query{
		{ID: 1, ArriveNs: 0, DemandBytes: 400 << 10},
		{ID: 2, ArriveNs: 0, DemandBytes: 400 << 10},
		{ID: 3, ArriveNs: 0, DemandBytes: 400 << 10},
		{ID: 4, ArriveNs: 0, DemandBytes: 400 << 10},
	}
	res := mustRun(t, Config{Pool: pool, Policy: Fair, MPL: 4, Exec: synthExec(0, 1000, 1)}, queries)
	for i, q := range res.Queries {
		if q.GrantBytes != 100<<10 {
			t.Errorf("q%d grant = %d, want pool/MPL = %d", i+1, q.GrantBytes, 100<<10)
		}
		if q.WaitNs != 0 {
			t.Errorf("q%d waited %dns; equal slices should admit immediately", i+1, q.WaitNs)
		}
	}
	if res.PeakMPL != 4 {
		t.Errorf("peak MPL = %d, want 4", res.PeakMPL)
	}
}

// Fair refuses to shrink below demand/8 — the lowest ratio the paper plots.
// With an MPL so high the equal slice falls under the floor and an idle pool,
// the head can never become admissible: Run reports the deadlock instead of
// spinning or silently granting below the floor.
func TestFairFloor(t *testing.T) {
	eng, err := New(Config{
		Pool:   gamma.NewMemPool(800 << 10),
		Policy: Fair,
		MPL:    16, // share = pool/16 < floor = demand/8
		Exec:   synthExec(0, 1000, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run([]*Query{
		{ID: 1, ArriveNs: 0, DemandBytes: 800 << 10},
		{ID: 2, ArriveNs: 0, DemandBytes: 800 << 10},
	})
	if err == nil {
		t.Fatal("sub-floor fair share with idle pool should deadlock-error, got success")
	}
}

// Shrink takes an integral-reciprocal grant when waiting costs more than
// the extra bucket-forming pass, and waits when it does not.
func TestShrinkTradeoff(t *testing.T) {
	m := cost.Default()
	// q1 holds 60KB of the 100KB pool; q2 (demand 80KB, outer 160KB) sees
	// 40KB free, which fits only at k=2 (grant demand/2 = 40KB).
	mk := func(q1Work cost.SimNs) *Result {
		pool := gamma.NewMemPool(100 << 10)
		exec := func(q *Query, grant int64) (*core.Report, error) {
			work := int64(1000)
			if q.ID == 1 {
				work = q1Work.Nanoseconds()
			}
			return synthExec(0, work, 1)(q, grant)
		}
		return mustRun(t, Config{Pool: pool, Policy: Shrink, Model: m, Exec: exec}, []*Query{
			{ID: 1, ArriveNs: 0, DemandBytes: 60 << 10, OuterBytes: 120 << 10},
			{ID: 2, ArriveNs: 10, DemandBytes: 80 << 10, OuterBytes: 160 << 10},
		})
	}
	spill := cost.Bytes((80<<10)+(160<<10)) / 2
	passCost := m.RepartitionPassNs(spill, tuple.Bytes)
	if passCost <= 0 {
		t.Fatal("pass cost should be positive for a 120KB spill")
	}

	// q1 holds its grant far longer than the pass costs: shrink to k=2.
	res := mk(100 * passCost)
	if g := res.Queries[1].GrantBytes; g != 40<<10 {
		t.Errorf("long wait: q2 grant = %d, want shrunken %d", g, 40<<10)
	}
	// q1's remaining time is just under the pass cost when q2 arrives:
	// waiting for the full grant is cheaper than the extra pass.
	res = mk(passCost)
	if g := res.Queries[1].GrantBytes; g != 80<<10 {
		t.Errorf("short wait: q2 grant = %d, want full %d", g, 80<<10)
	}
	if w := res.Queries[1].WaitNs; w <= 0 {
		t.Errorf("short wait: q2 should have waited, waited %dns", w)
	}
}

// revokeWorkload is the canonical revocation scenario: q1 holds the whole
// 100KB pool, q2 arrives while it runs and is memory-blocked below even its
// demand/8 floor, so only ShrinkRevoke can admit it before q1 finishes.
func revokeWorkload(t *testing.T, policy Policy, q2Work int64) (*Result, *gamma.MemPool) {
	t.Helper()
	pool := gamma.NewMemPool(100 << 10)
	exec := func(q *Query, grant int64) (*core.Report, error) {
		work := int64(1_000_000)
		if q.ID == 2 {
			work = q2Work
		}
		return synthExec(0, work, 1)(q, grant)
	}
	res := mustRun(t, Config{Pool: pool, Policy: policy, Model: cost.Default(), Exec: exec},
		[]*Query{
			{ID: 1, ArriveNs: 0, DemandBytes: 100 << 10, OuterBytes: 200 << 10},
			{ID: 2, ArriveNs: 10, DemandBytes: 100 << 10, OuterBytes: 200 << 10},
		})
	return res, pool
}

// ShrinkRevoke claws back the head's floor grant from the running victim and
// charges the victim one repartition pass over its spilled share, appended to
// the end of its schedule.
func TestRevokeAdmitsBlockedHead(t *testing.T) {
	res, pool := revokeWorkload(t, ShrinkRevoke, 1_000_000)
	q1, q2 := res.Queries[0], res.Queries[1]
	floor := int64(100<<10) / 8
	if q2.AdmitNs != 10 || q2.WaitNs != 0 {
		t.Errorf("q2 admit %d wait %d; revocation should admit it on arrival", q2.AdmitNs, q2.WaitNs)
	}
	if q2.GrantBytes != floor {
		t.Errorf("q2 grant = %d, want the demand/8 floor %d", q2.GrantBytes, floor)
	}
	if pool.Revoked() != floor || pool.Revokes() != 1 {
		t.Errorf("pool revoked %d in %d calls, want %d in 1", pool.Revoked(), pool.Revokes(), floor)
	}
	if res.RevokedBytes != floor || res.Revokes != 1 {
		t.Errorf("result ledger %d/%d, want %d/1", res.RevokedBytes, res.Revokes, floor)
	}
	// Both queries share site 0 with equal 1M work, so q1's work phase drains
	// at 2M-10; the spill penalty — one pass over the revoked build bytes
	// plus the proportional outer share — lands after it, uncancelled
	// because q1 reached the penalty phase while q2 still held the memory.
	spill := cost.Bytes(floor + floor*2)
	pen := cost.Default().RepartitionPassNs(spill, tuple.Bytes)
	if pen <= 0 {
		t.Fatal("penalty pass should cost time")
	}
	if want := cost.Ns(2_000_000-10) + pen; q1.ResponseNs != want {
		t.Errorf("q1 response = %d, want work 2M-10 + penalty %d = %d", q1.ResponseNs, pen, want)
	}
	if res.RegrantedBytes != 0 {
		t.Errorf("re-granted %d bytes; victim reached its spill pass, nothing should come back", res.RegrantedBytes)
	}
}

// If the revoked memory frees up before the victim reaches its spill pass,
// the engine re-grants it and cancels the penalty — the scheduler-level
// mirror of partition resurrection.
func TestRevokeRegrantCancelsPenalty(t *testing.T) {
	res, pool := revokeWorkload(t, ShrinkRevoke, 1000)
	q1 := res.Queries[0]
	floor := int64(100<<10) / 8
	if pool.Regranted() != floor || res.RegrantedBytes != floor {
		t.Errorf("re-granted %d/%d, want %d", pool.Regranted(), res.RegrantedBytes, floor)
	}
	// q2's 1000ns of shared work delays q1 by exactly 1000ns; the cancelled
	// penalty phase must contribute nothing.
	if want := cost.Ns(1_001_000); q1.ResponseNs != want {
		t.Errorf("q1 response = %d, want %d with the penalty cancelled", q1.ResponseNs, want)
	}
}

// The legacy policies never touch the revocation path: same workload, zero
// revocation traffic, and no revocation line in the report text.
func TestLegacyPoliciesNeverRevoke(t *testing.T) {
	for _, p := range Policies {
		res, pool := revokeWorkload(t, p, 1_000_000)
		if pool.Revoked() != 0 || pool.Regranted() != 0 || pool.Revokes() != 0 {
			t.Errorf("%v: revocation traffic %d/%d/%d, want none", p, pool.Revoked(), pool.Regranted(), pool.Revokes())
		}
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(buf.Bytes(), []byte("revocations")) {
			t.Errorf("%v: report text grew a revocation line; legacy output must stay byte-identical", p)
		}
		// Under every legacy policy q2 waits for q1 instead of shrinking it.
		if q2 := res.Queries[1]; q2.AdmitNs != res.Queries[0].FinishNs {
			t.Errorf("%v: q2 admitted at %d, want q1's finish %d", p, q2.AdmitNs, res.Queries[0].FinishNs)
		}
	}
}

func TestParsePolicyRevoke(t *testing.T) {
	got, err := ParsePolicy("revoke")
	if err != nil || got != ShrinkRevoke {
		t.Fatalf("ParsePolicy(revoke) = %v, %v", got, err)
	}
	if got.String() != "revoke" {
		t.Errorf("String() = %q, want revoke", got.String())
	}
	for _, p := range Policies {
		if p == ShrinkRevoke {
			t.Error("Policies must not include revoke: MPLSweep and the bench baseline iterate it")
		}
	}
}

// The generator is a pure function of its spec.
func TestGenWorkloadDeterminism(t *testing.T) {
	ws := WorkloadSpec{N: 32, Seed: 7, MeanGapNs: 1e9, InnerBytes: 1 << 20, OuterBytes: 10 << 20}
	a, b := GenWorkload(ws), GenWorkload(ws)
	if len(a) != len(b) || len(a) != 32 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("query %d differs between identical specs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := GenWorkload(WorkloadSpec{N: 32, Seed: 8, MeanGapNs: 1e9, InnerBytes: 1 << 20, OuterBytes: 10 << 20})
	same := true
	for i := range a {
		if a[i].ArriveNs != c[i].ArriveNs || a[i].Alg != c[i].Alg {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
	for i := 1; i < len(a); i++ {
		if a[i].ArriveNs <= a[i-1].ArriveNs {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
	}
}

// The whole engine, report text included, is byte-deterministic.
func TestEngineReportDeterminism(t *testing.T) {
	run := func() []byte {
		ws := WorkloadSpec{N: 16, Seed: 42, MeanGapNs: 500, InnerBytes: 300 << 10, OuterBytes: 3000 << 10}
		res := mustRun(t, Config{
			Pool:   gamma.NewMemPool(600 << 10),
			Policy: Fair,
			MPL:    4,
			Exec:   synthExec(10, 1000, 3),
		}, GenWorkload(ws))
		var buf bytes.Buffer
		if err := res.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("identical workload runs produced different report bytes")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []cost.SimNs{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    int
		want cost.SimNs
	}{{50, 50}, {95, 100}, {99, 100}, {100, 100}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%d = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]cost.SimNs{7}, 99); got != 7 {
		t.Errorf("single element p99 = %d, want 7", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("lru"); err == nil {
		t.Error("bogus policy should not parse")
	}
}
