package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
)

// TestPhaseRunsStepsByRoleAndSite builds one phase with its steps added out
// of (role, site) order and checks how runPhase groups them: one process per
// (role, site), with one span carrying its role's label; each process runs
// its steps in the order they were added, on one account; and the split
// table is priced for exactly the produce processes. The steps of a (role,
// site) are spread over the list, so a sort that is not stable reorders
// them, and grouping by role alone merges the two producing sites.
// Producers send one tuple per step to the consumers and consumers one per
// step to the writer, so each stage reads what the one before it delivered.
func TestPhaseRunsStepsByRoleAndSite(t *testing.T) {
	type key struct {
		r    role
		site int
	}
	adds := []key{
		{consume, 1}, {produce, 2}, {write, 3}, {produce, 0}, {produce, 2},
		{consume, 1}, {solo, 0}, {produce, 2}, {consume, 1}, {produce, 0},
		{produce, 2}, {consume, 1}, {produce, 2}, {consume, 1}, {produce, 0},
		{produce, 2}, {consume, 1}, {produce, 2}, {consume, 1}, {produce, 2},
	}
	count := map[role]int{}
	for _, k := range adds {
		count[k.r]++
	}

	c := gamma.NewLocal(4, nil)
	rc := newBareCtx(c, nil)
	ps := rc.newPhase("steps", opLabels{produce: "scan", consume: "build"}, -1)
	const entries = 1000
	ps.end.SplitEntries = entries

	var mu sync.Mutex
	ran := map[key][]int{} // step ids, in the order each process ran them
	accts := map[key]*cost.Acct{}
	for id, k := range adds {
		ps.add(k.r, k.site, func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			mu.Lock()
			defer mu.Unlock()
			ran[k] = append(ran[k], id)
			if accts[k] == nil {
				accts[k] = a
			} else if accts[k] != a {
				t.Errorf("step %d (%s at site %d) ran on another account than its process's first step", id, roleNames[k.r], k.site)
			}
			if wantSnd := k.r == produce || k.r == consume; (snd != nil) != wantSnd {
				t.Errorf("step %d (%s): sender %v, want one: %v", id, roleNames[k.r], snd != nil, wantSnd)
			}
			var got int
			for _, b := range batches {
				got += len(b.Tuples)
			}
			want := map[role]int{consume: count[produce], write: count[consume]}[k.r]
			if got != want {
				t.Errorf("step %d (%s at site %d) read %d tuples, want %d", id, roleNames[k.r], k.site, got, want)
			}
			var tu tuple.Tuple
			tu.SetInt(tuple.Unique1, int32(id))
			switch k.r {
			case produce:
				a.AddCPU(rc.m.WriteTuple)
				snd.Send(1, tagProbe, &tu, 0)
			case consume:
				a.AddCPU(rc.m.WriteTuple)
				snd.Send(3, tagStore, &tu, 0)
			}
		})
	}
	if err := rc.runPhase(ps); err != nil {
		t.Fatal(err)
	}

	for k, ids := range ran {
		if !slices.IsSorted(ids) {
			t.Errorf("%s at site %d ran steps %v, want the order they were added", roleNames[k.r], k.site, ids)
		}
	}
	var spans []string
	for _, sp := range rc.tr.Spans() {
		if sp.Site >= 0 {
			spans = append(spans, fmt.Sprintf("%s/%s@%d", sp.Role, sp.Op, sp.Site))
		}
	}
	// Spans returns them in track order: by site, then role.
	wantSpans := []string{"produce/scan@0", "solo/solo@0", "consume/build@1", "produce/scan@2", "write/write@3"}
	if !slices.Equal(spans, wantSpans) {
		t.Errorf("spans %v, want %v", spans, wantSpans)
	}
	m := c.Model
	wantSched := m.PhaseStartup + cost.ScaleNs(4*3, m.ControlMsg) +
		cost.ScaleNs(m.SplitTablePackets(entries)*2, m.PacketProto+m.PacketWire)
	if got := rc.q.Phases[0].Sched; got != wantSched {
		t.Errorf("Sched %d, want %d: split table priced for two producers at 4 sites", got, wantSched)
	}
}

// TestRedoRebuildsItsPhase crashes a mirrored sort-merge join as its merge
// phase starts. The failover re-runs the merge unit, which must build its
// phase anew — running a phase hands its step list back to the attempt —
// and give the clean run's answer.
func TestRedoRebuildsItsPhase(t *testing.T) {
	clean := crashRun(t, SortMerge, nil, true)
	fo := crashRun(t, SortMerge, &fault.CrashPoint{Phase: 4, Site: 3}, true)
	if fo.FailedOver != 1 || fo.Phases[len(fo.Phases)-1].Name != "merge join (redo)" {
		t.Fatalf("FailedOver %d, last phase %q: want one failover redoing the merge join", fo.FailedOver, fo.Phases[len(fo.Phases)-1].Name)
	}
	if fo.ResultCount != clean.ResultCount || resultChecksum(fo.Results) != resultChecksum(clean.Results) {
		t.Errorf("redone merge: %d results (checksum %016x), clean run %d (%016x)",
			fo.ResultCount, resultChecksum(fo.Results), clean.ResultCount, resultChecksum(clean.Results))
	}
}
