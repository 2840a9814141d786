package core

import (
	"encoding/json"
	"strings"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/trace"
	"gammajoin/internal/tuple"
)

// chromeJSON renders a recorder's Chrome trace_event export as a string;
// the determinism tests byte-compare it across runs.
func chromeJSON(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	if rec == nil {
		t.Fatal("report carries no trace recorder")
	}
	var sb strings.Builder
	if err := rec.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// chromeDoc is the subset of the trace_event format the structure test
// inspects.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceChromeExportStructure checks the acceptance criterion on the
// export shape: valid JSON, one named track per site (plus the scheduler
// track), and a span for every operator process in every phase.
func TestTraceChromeExportStructure(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Hybrid, 0.25, func(sp *Spec) { sp.BitFilter = true })

	var doc chromeDoc
	if err := json.Unmarshal([]byte(chromeJSON(t, rep.Trace)), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	// One thread_name metadata event per site, plus the scheduler track.
	tracks := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Tid] = ev.Args["name"].(string)
		}
	}
	if want := len(c.Sites) + 1; len(tracks) != want {
		t.Fatalf("got %d named tracks, want %d (sites + scheduler)", len(tracks), want)
	}
	for tid, name := range tracks {
		if tid == len(c.Sites) {
			if name != "scheduler" {
				t.Errorf("track %d named %q, want scheduler", tid, name)
			}
		} else if !strings.HasPrefix(name, "site ") {
			t.Errorf("track %d named %q, want a site label", tid, name)
		}
	}

	// Every phase of the report must have complete spans on site tracks,
	// and every span a phase_name arg matching a real phase.
	phaseNames := map[string]bool{}
	for _, st := range rep.Phases {
		phaseNames[st.Name] = true
	}
	spansPerPhase := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "schedule" {
			continue
		}
		pn, _ := ev.Args["phase_name"].(string)
		if !phaseNames[pn] {
			t.Fatalf("span %q carries unknown phase_name %q", ev.Name, pn)
		}
		spansPerPhase[pn]++
		if ev.Tid < 0 || ev.Tid >= len(c.Sites) {
			t.Fatalf("span %q on tid %d, outside the site tracks", ev.Name, ev.Tid)
		}
	}
	for name := range phaseNames {
		if spansPerPhase[name] == 0 {
			t.Errorf("phase %q has no operator spans", name)
		}
	}
}

// TestTraceVirtualClockMatchesResponse pins the simulated-clock semantics:
// the recorder's clock advances in lockstep with the response-time
// accumulation, so after a run Now() equals the query response exactly, and
// no span ends beyond it.
func TestTraceVirtualClockMatchesResponse(t *testing.T) {
	for _, alg := range allAlgs {
		c := gamma.NewLocal(8, nil)
		f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
		rep := runJoin(t, f, alg, 0.25, nil)
		if got, want := rep.Trace.Now(), cost.DurNs(rep.Response); got != want {
			t.Errorf("%v: trace clock %d ns, response %d ns", alg, got, want)
		}
		for _, sp := range rep.Trace.Spans() {
			if sp.End() > rep.Trace.Now() {
				t.Errorf("%v: span %s/%s ends at %d, beyond the clock %d",
					alg, sp.PhaseName, sp.Op, sp.End(), rep.Trace.Now())
			}
		}
	}
}

// TestUtilizationFromTraceMatchesPaper is the paper's Section 5 claim made
// quantitative through the trace: a local join saturates the disk-site CPUs
// (~100%), while the remote configuration leaves them around 60%.
func TestUtilizationFromTraceMatchesPaper(t *testing.T) {
	lc := gamma.NewLocal(8, nil)
	lf := mkFixture(t, lc, 8000, gamma.HashPart, tuple.Unique2)
	local := runJoin(t, lf, Hybrid, 1.0, nil)

	rcl := gamma.NewRemote(8, 8, nil)
	rf := mkFixture(t, rcl, 8000, gamma.HashPart, tuple.Unique2)
	remote := runJoin(t, rf, Hybrid, 1.0, nil)

	if local.UtilDisk < 0.85 || local.UtilDisk > 1.0 {
		t.Errorf("local disk-site utilization %.2f, paper claims ~100%%", local.UtilDisk)
	}
	if remote.UtilDisk < 0.4 || remote.UtilDisk > 0.8 {
		t.Errorf("remote disk-site utilization %.2f, paper claims ~60%%", remote.UtilDisk)
	}

	// The report values must be exactly the trace-derived ones: per-site
	// CPU summed over the successful attempt's worker spans, averaged and
	// divided by the response time.
	cpu := map[int]cost.SimNs{}
	for _, sp := range local.Trace.Spans() {
		if sp.Attempt == local.Trace.Attempt() && sp.Site >= 0 {
			cpu[sp.Site] += sp.CPU
		}
	}
	var sum float64
	for _, site := range lc.DiskSites() {
		sum += float64(cpu[site])
	}
	want := sum / float64(len(lc.DiskSites())) / float64(local.Response)
	if local.UtilDisk != want {
		t.Errorf("UtilDisk %v diverges from trace-derived %v", local.UtilDisk, want)
	}
}

// TestFormingMetricsPerPhase checks the metrics-registry satellite: the
// forming counters are queryable per phase, and their per-phase deltas sum
// to the whole-join Report.Forming totals.
func TestFormingMetricsPerPhase(t *testing.T) {
	c := gamma.NewLocal(8, nil)
	f := mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	rep := runJoin(t, f, Grace, 0.25, nil)

	mm := rep.Trace.Metrics()
	sumDeltas := func(name string) int64 {
		var s int64
		for _, d := range mm.Deltas(name) {
			s += d
		}
		return s
	}
	if got := sumDeltas("form.tuples.local"); got != rep.Forming.TuplesLocal.Count() {
		t.Errorf("form.tuples.local deltas sum %d, report says %d", got, rep.Forming.TuplesLocal)
	}
	if got := sumDeltas("form.tuples.remote"); got != rep.Forming.TuplesRemote.Count() {
		t.Errorf("form.tuples.remote deltas sum %d, report says %d", got, rep.Forming.TuplesRemote)
	}

	// Grace forms in the first two phases only; every forming delta must
	// land there.
	var formPhases []string
	samples := mm.Samples()
	for i, d := range mm.Deltas("form.tuples.local") {
		if d != 0 {
			formPhases = append(formPhases, samples[i].PhaseName)
		}
	}
	for _, name := range formPhases {
		if !strings.HasPrefix(name, "form ") {
			t.Errorf("forming tuples attributed to phase %q", name)
		}
	}
}
