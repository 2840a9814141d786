package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"gammajoin/internal/cost"
)

// refChromeEvent and writeChromeReference are the encoding/json Chrome
// exporter that WriteChrome replaced, kept as the oracle for its bytes.
type refChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func writeChromeReference(r *Recorder, w io.Writer) error {
	schedTid := len(r.SiteLabels())
	qid := r.QueryID()
	procName := "gamma simulator (simulated time)"
	if qid != 0 {
		procName = fmt.Sprintf("query %d (simulated time)", qid)
	}
	var evs []refChromeEvent
	evs = append(evs, refChromeEvent{
		Name: "process_name", Ph: "M", Pid: qid,
		Args: map[string]any{"name": procName},
	})
	for site, label := range r.SiteLabels() {
		evs = append(evs, refChromeEvent{
			Name: "thread_name", Ph: "M", Pid: qid, Tid: site,
			Args: map[string]any{"name": label},
		})
		evs = append(evs, refChromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: qid, Tid: site,
			Args: map[string]any{"sort_index": site},
		})
	}
	evs = append(evs, refChromeEvent{
		Name: "thread_name", Ph: "M", Pid: qid, Tid: schedTid,
		Args: map[string]any{"name": "scheduler"},
	})
	evs = append(evs, refChromeEvent{
		Name: "thread_sort_index", Ph: "M", Pid: qid, Tid: schedTid,
		Args: map[string]any{"sort_index": schedTid},
	})
	for _, s := range r.Spans() {
		tid := s.Site
		if tid < 0 {
			tid = schedTid
		}
		args := map[string]any{
			"attempt":    s.Attempt,
			"phase":      s.Phase,
			"phase_name": s.PhaseName,
			"cpu_ns":     s.CPU,
			"disk_ns":    s.Disk,
			"net_ns":     s.Net,
		}
		if s.Bucket >= 0 {
			args["bucket"] = s.Bucket
		}
		evs = append(evs, refChromeEvent{
			Name: s.Op, Cat: s.Role, Ph: "X", Pid: qid, Tid: tid,
			Ts: usec(s.Start), Dur: usec(s.Dur), Args: args,
		})
		for _, ev := range s.Events {
			evs = append(evs, refChromeEvent{
				Name: ev.Kind, Cat: "fault", Ph: "i", Pid: qid, Tid: tid,
				Ts: usec(ev.At), S: "t",
				Args: map[string]any{"detail": ev.Detail, "op": s.Op},
			})
		}
	}
	for _, in := range r.Instants() {
		tid := in.Site
		if tid < 0 {
			tid = schedTid
		}
		evs = append(evs, refChromeEvent{
			Name: in.Kind, Cat: "fault", Ph: "i", Pid: qid, Tid: tid,
			Ts: usec(in.At), S: "p",
			Args: map[string]any{"detail": in.Detail, "attempt": in.Attempt},
		})
	}
	for _, smp := range r.Metrics().Samples() {
		for _, kv := range smp.Values {
			evs = append(evs, refChromeEvent{
				Name: kv.Name, Ph: "C", Pid: qid, Ts: usecAt(smp.At),
				Args: map[string]any{"value": kv.V},
			})
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(b)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeSpansTSVReference and writeMetricsTSVReference are the fmt-based
// TSV exporters the streaming ones replaced.
func writeSpansTSVReference(r *Recorder, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "query\tattempt\tphase\tphase_name\tsite\trole\top\tbucket\tstart_ns\tdur_ns\tcpu_ns\tdisk_ns\tnet_ns\tevents")
	for _, s := range r.Spans() {
		evs := ""
		for i, ev := range s.Events {
			if i > 0 {
				evs += " "
			}
			evs += fmt.Sprintf("%s@%d(%d)", ev.Kind, ev.At, ev.Detail)
		}
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.QueryID(), s.Attempt, s.Phase, s.PhaseName, s.Site, s.Role, s.Op, s.Bucket,
			s.Start, s.Dur, s.CPU, s.Disk, s.Net, evs)
	}
	return bw.Flush()
}

func writeMetricsTSVReference(m *Metrics, w io.Writer) error {
	isCounter := func(name string) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.counters[name] != nil
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "attempt\tphase\tphase_name\tat_ns\tmetric\tvalue\tdelta")
	prev := make(map[string]int64)
	for _, smp := range m.Samples() {
		for _, kv := range smp.Values {
			delta := kv.V
			if isCounter(kv.Name) {
				delta = kv.V - prev[kv.Name]
				prev[kv.Name] = kv.V
			}
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%s\t%d\t%d\n",
				smp.Attempt, smp.Phase, smp.PhaseName, smp.At, kv.Name, kv.V, delta)
		}
	}
	return bw.Flush()
}

// adversarialRecorder exercises every escaping and omission rule of the
// exports: quotes, backslashes, <&>, tabs, control bytes, invalid UTF-8,
// U+2028 and non-ASCII text in every string field, a nonzero query id,
// buckets of -1 and >= 0, a zero-duration span, fractional and large
// microsecond timestamps, negative metric values, and a metric registered
// after the first sample.
func adversarialRecorder() *Recorder {
	odd := "q\"b\\s<&>\tt\x01\x1f\x7f \xff\xe2\x80\xa8 naïve ☃"
	r := NewRecorder([]string{"site 0 (disk)", "site \"1\" <r&d>\t" + odd, ""})
	r.SetQuery(7)
	m := r.Metrics()
	c := m.Counter("pkts " + odd)
	g := m.Gauge("chain.max")
	r.NewAttempt()

	r.BeginPhase("build " + odd)
	closeWith(r.Start(0, "scan "+odd, "produce", -1), cost.Acct{CPU: 1234567, Disk: 89, Net: 1})
	sp := r.Start(1, "build", "consume", 3)
	a := sp.Acct()
	a.AddCPU(1)
	a.Note("net.retransmit", 2)
	a.AddDisk(4_000_000_000_123)
	a.Note("disk.retry "+odd, -1)
	sp.Close()
	closeWith(r.Start(2, "idle", "", 0), cost.Acct{}) // zero duration, no role
	c.Add(5)
	g.Max(9)
	r.Instant(1, "crash", "detail "+odd)
	r.EndPhase(4_000_000_000_123, 7)

	r.NewAttempt()
	r.Instant(-1, "restart", "")
	m.Gauge("late <gauge>").Set(-3)
	r.BeginPhase("probe")
	closeWith(r.Start(0, "probe b0", "consume", 0), cost.Acct{CPU: 999})
	c.Add(-2)
	r.EndPhase(999, 1)
	return r
}

// TestExportsMatchReference compares each writer byte for byte with the
// encoding/json and fmt exporters it replaced.
func TestExportsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    *Recorder
	}{
		{"adversarial", adversarialRecorder()},
		{"join-shaped", joinShapedRecorder(1)},
	} {
		r := tc.r
		for _, w := range []struct {
			name     string
			got, ref func(io.Writer) error
		}{
			{"chrome", r.WriteChrome, func(out io.Writer) error { return writeChromeReference(r, out) }},
			{"spans", r.WriteSpansTSV, func(out io.Writer) error { return writeSpansTSVReference(r, out) }},
			{"metrics", r.WriteMetricsTSV, func(out io.Writer) error { return writeMetricsTSVReference(r.Metrics(), out) }},
		} {
			var got, want bytes.Buffer
			if err := w.got(&got); err != nil {
				t.Fatal(err)
			}
			if err := w.ref(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s %s export differs from the reference\ngot:\n%s\nwant:\n%s", tc.name, w.name, got.Bytes(), want.Bytes())
			}
		}
	}
}

// joinShapedRecorder records a traced join: 8 sites, three operator roles
// per site and a scheduler span in each of 12*scale phases (300 spans per
// scale unit), a fault event on every fourth span, and 18 metrics sampled
// at every barrier.
func joinShapedRecorder(scale int) *Recorder {
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = "site " + strconv.Itoa(i) + " (disk)"
	}
	r := NewRecorder(labels)
	m := r.Metrics()
	var counters []*Counter
	var gauges []*Gauge
	for i := 0; i < 12; i++ {
		counters = append(counters, m.Counter("layer"+strconv.Itoa(i)+".count"))
	}
	for i := 0; i < 6; i++ {
		gauges = append(gauges, m.Gauge("layer"+strconv.Itoa(i)+".peak"))
	}
	r.NewAttempt()
	n := 0
	for p := 0; p < 12*scale; p++ {
		r.BeginPhase("hybrid partition S + probe bucket " + strconv.Itoa(p%4))
		var work cost.SimNs
		for site := range labels {
			for _, role := range []string{"produce", "consume", "write"} {
				sp := r.Start(site, role+" b"+strconv.Itoa(p%4), role, p%4)
				a := sp.Acct()
				a.AddCPU(cost.Ns(int64(1_000_003 * (n%7 + 1))))
				a.AddDisk(cost.Ns(int64(2_500_011 * (n%3 + 1))))
				a.AddNet(cost.Ns(int64(700_001 * (n%5 + 1))))
				if n%4 == 0 {
					a.Note("disk.retry", int64(n))
				}
				sp.Close()
				work = max(work, sp.Dur)
				n++
			}
		}
		for i, c := range counters {
			c.Add(int64(1000*i + p))
		}
		for i, g := range gauges {
			g.Max(int64(i * p))
		}
		r.EndPhase(work, 250_000)
	}
	return r
}

// TestExportAllocsIndependentOfSize is the exporters' allocation gate:
// each writer allocates a fixed amount per call, so a recorder ten times
// larger costs exactly as many allocations.
func TestExportAllocsIndependentOfSize(t *testing.T) {
	small, large := joinShapedRecorder(1), joinShapedRecorder(10)
	for _, w := range []struct {
		name  string
		write func(*Recorder, io.Writer) error
	}{
		{"chrome", (*Recorder).WriteChrome},
		{"spans-tsv", (*Recorder).WriteSpansTSV},
		{"metrics-tsv", (*Recorder).WriteMetricsTSV},
	} {
		s := testing.AllocsPerRun(5, func() { w.write(small, io.Discard) })
		l := testing.AllocsPerRun(5, func() { w.write(large, io.Discard) })
		if s != l {
			t.Errorf("%s: %.0f allocations for 300 spans, %.0f for 3000; want the same", w.name, s, l)
		}
	}
}

// benchmarkExport times one writer on a join-shaped recorder and reports
// its cost per unit (span or metric sample).
func benchmarkExport(b *testing.B, write func(*Recorder, io.Writer) error, unit string, units func(*Recorder) int) {
	r := joinShapedRecorder(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units(r)), unit)
}

func spanCount(r *Recorder) int   { return len(r.Spans()) }
func sampleCount(r *Recorder) int { return len(r.Metrics().Samples()) }

func BenchmarkWriteChrome(b *testing.B) {
	benchmarkExport(b, (*Recorder).WriteChrome, "ns/span", spanCount)
}

func BenchmarkWriteSpansTSV(b *testing.B) {
	benchmarkExport(b, (*Recorder).WriteSpansTSV, "ns/span", spanCount)
}

func BenchmarkWriteMetricsTSV(b *testing.B) {
	benchmarkExport(b, (*Recorder).WriteMetricsTSV, "ns/sample", sampleCount)
}

// FuzzAppendJSONString checks appendJSONString against json.Marshal.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "<>&", `say "hi"`, `back\slash`, "\x00\x01\x08\x0c\n\r\t\x1f\x7f",
		"\xff", "bad \xc3 tail", "\xed\xa0\x80", "line\u2028para\u2029", "naïve ☃ \U0001f600",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	})
}

// FuzzAppendJSONFloat checks appendJSONFloat against json.Marshal for
// every finite float64.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 5e-324, 1e21, -1e21, 1e20,
		123456.789, 0.001, math.MaxFloat64,
	} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip("encoding/json rejects non-finite floats")
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, x); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", x, got, want)
		}
	})
}
