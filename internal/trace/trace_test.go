package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"gammajoin/internal/cost"
)

// closeWith charges a span's account as its operator process would, then
// closes the span.
func closeWith(sp *Span, a cost.Acct) *Span {
	*sp.Acct() = a
	sp.Close()
	return sp
}

func TestVirtualClockAdvancesAtBarriers(t *testing.T) {
	r := NewRecorder([]string{"site 0", "site 1"})
	r.NewAttempt()

	r.BeginPhase("build")
	sp := r.Start(0, "build", "consume", -1)
	if sp.Start != 0 {
		t.Fatalf("first phase span starts at %d, want 0", sp.Start)
	}
	closeWith(sp, cost.Acct{CPU: 100, Disk: 40})
	if sp.Dur != 100 || sp.CPU != 100 || sp.Disk != 40 {
		t.Fatalf("span close stamped %+v", sp)
	}
	r.EndPhase(100, 7)
	if got := r.Now(); got != 107 {
		t.Fatalf("clock after phase = %d, want 107", got)
	}

	r.BeginPhase("probe")
	sp2 := r.Start(1, "probe", "consume", -1)
	if sp2.Start != 107 {
		t.Fatalf("second phase span starts at %d, want 107", sp2.Start)
	}
	r.EndPhase(50, 7)
	if got := r.Now(); got != 164 {
		t.Fatalf("clock after two phases = %d, want 164", got)
	}
}

func TestSchedulerSpanPerPhase(t *testing.T) {
	r := NewRecorder([]string{"s0"})
	r.NewAttempt()
	r.BeginPhase("only")
	r.EndPhase(100, 9)
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want the scheduler span", len(spans))
	}
	s := spans[0]
	if s.Site != -1 || s.Role != "sched" || s.Start != 100 || s.Dur != 9 {
		t.Fatalf("scheduler span %+v", s)
	}
}

func TestSpanEventsShiftToAbsoluteTime(t *testing.T) {
	r := NewRecorder([]string{"s0"})
	r.NewAttempt()
	r.BeginPhase("p0")
	r.EndPhase(1000, 0)
	r.BeginPhase("p1")
	sp := r.Start(0, "scan", "produce", -1)
	a := sp.Acct()
	a.AddDisk(30)
	a.Note("disk.retry", 42)
	sp.Close()
	if len(sp.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(sp.Events))
	}
	// The note fired at account-relative 30 ns inside a phase starting at
	// absolute 1000 ns.
	if ev := sp.Events[0]; ev.Kind != "disk.retry" || ev.Detail != 42 || ev.At != 1030 {
		t.Fatalf("event %+v, want disk.retry/42 at 1030", ev)
	}
}

func TestCanonicalSpanOrderIgnoresAppendOrder(t *testing.T) {
	build := func(order []int) []*Span {
		r := NewRecorder([]string{"s0", "s1", "s2"})
		r.NewAttempt()
		r.BeginPhase("p")
		for _, site := range order {
			closeWith(r.Start(site, "scan", "produce", -1), cost.Acct{CPU: 1})
		}
		r.EndPhase(1, 1)
		return r.Spans()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Site != b[i].Site || a[i].Op != b[i].Op || a[i].Role != b[i].Role {
			t.Fatalf("canonical order differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMetricsSampleAndDeltas(t *testing.T) {
	r := NewRecorder([]string{"s0"})
	m := r.Metrics()
	r.NewAttempt()

	c := m.Counter("tuples")
	g := m.Gauge("chain.max")

	r.BeginPhase("p0")
	c.Add(10)
	g.Max(3)
	g.Max(2) // Max keeps the larger value
	r.EndPhase(5, 1)

	r.BeginPhase("p1")
	c.Add(7)
	r.EndPhase(5, 1)

	samples := m.Samples()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	// Counters are cumulative in samples, per-phase via Deltas.
	d := m.Deltas("tuples")
	if len(d) != 2 || d[0] != 10 || d[1] != 7 {
		t.Fatalf("counter deltas %v, want [10 7]", d)
	}
	// Gauges reset at each sample: phase 1 saw no chain updates.
	gd := m.Deltas("chain.max")
	if len(gd) != 2 || gd[0] != 3 || gd[1] != 0 {
		t.Fatalf("gauge series %v, want [3 0]", gd)
	}
	if !m.IsCounter("tuples") || m.IsCounter("chain.max") {
		t.Fatal("IsCounter misclassifies")
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	r := NewRecorder([]string{"site 0 (disk)", "site 1 (disk)"})
	r.NewAttempt()
	r.BeginPhase("build")
	sp := r.Start(0, "build", "consume", 2)
	a := sp.Acct()
	a.AddCPU(50)
	a.Note("net.retransmit", 1)
	sp.Close()
	r.Instant(1, "crash", "build")
	r.EndPhase(50, 5)

	var sb strings.Builder
	if err := r.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	var haveSpan, haveFault, haveCrash bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["name"] == "build" {
				haveSpan = true
			}
		case "i":
			switch ev["name"] {
			case "net.retransmit":
				haveFault = true
			case "crash":
				haveCrash = true
			}
		}
	}
	if !haveSpan || !haveFault || !haveCrash {
		t.Fatalf("export missing events: span=%v fault=%v crash=%v", haveSpan, haveFault, haveCrash)
	}
}

func TestTSVAndFoldedExports(t *testing.T) {
	r := NewRecorder([]string{"s0"})
	r.NewAttempt()
	r.BeginPhase("sort")
	closeWith(r.Start(0, "sort", "solo", -1), cost.Acct{CPU: 33})
	r.Metrics().Counter("pages").Add(4)
	r.EndPhase(33, 1)

	var spans, metrics strings.Builder
	if err := r.WriteSpansTSV(&spans); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetricsTSV(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spans.String(), "sort") {
		t.Errorf("spans TSV missing the sort span:\n%s", spans.String())
	}
	if !strings.Contains(metrics.String(), "pages\t4\t4") {
		t.Errorf("metrics TSV missing the pages sample:\n%s", metrics.String())
	}
}
