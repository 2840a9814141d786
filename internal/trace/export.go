package trace

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"gammajoin/internal/cost"
)

// Exporters. All of them emit in the canonical span order (see Spans), so
// the same execution always serializes to the same bytes — trace files are
// covered by the determinism gate exactly like the simulator's reports.
//
// Timestamps: the Chrome trace_event format counts in microseconds; the
// simulator counts in nanoseconds. Values are emitted as µs with fractional
// ns (float64 — Go's shortest-representation formatting is deterministic).
//
// Each writer appends one record at a time into a reused byte buffer and
// hands it to a bufio.Writer, so exporting allocates a fixed amount per call
// however many spans and samples the recorder holds. A bufio.Writer keeps
// its first write error and returns it from Flush, which every writer
// returns.

func usec(ns cost.SimNs) float64 { return ns.Micros() }

// usecAt converts the bare-ns metric-sample timestamps.
func usecAt(ns int64) float64 { return float64(ns) / 1e3 }

// chromeWriter writes trace_event records for one Chrome process (pid).
// Every record has the shape encoding/json gives a struct with the fields
// name, cat (omitempty), ph, pid, tid, ts, dur (omitempty), s (omitempty)
// and args, where args is a map and therefore comes out with sorted keys;
// callers append each record's args in that order.
type chromeWriter struct {
	bw  *bufio.Writer
	buf []byte
	pid int
	n   int // records written so far
}

// begin starts a record in the reused buffer: the separator from the
// previous record, then every field up to the opening of args.
func (c *chromeWriter) begin(name, cat, ph string, tid int, ts, dur float64, s string) []byte {
	b := c.buf[:0]
	if c.n > 0 {
		b = append(b, ",\n"...)
	}
	c.n++
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, cat)
	}
	b = append(b, `,"ph":`...)
	b = appendJSONString(b, ph)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(c.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendJSONFloat(b, ts)
	if dur != 0 {
		b = append(b, `,"dur":`...)
		b = appendJSONFloat(b, dur)
	}
	if s != "" {
		b = append(b, `,"s":`...)
		b = appendJSONString(b, s)
	}
	return append(b, `,"args":{`...)
}

// end closes args and the record, and writes it.
func (c *chromeWriter) end(b []byte) {
	b = append(b, "}}"...)
	c.buf = b
	c.bw.Write(b)
}

// meta starts an "M" record; key opens its one arg.
func (c *chromeWriter) meta(name string, tid int, key string) []byte {
	return append(c.begin(name, "", "M", tid, 0, 0, ""), key...)
}

// WriteChrome emits the trace in Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing. One thread (track) per site, named after
// the site's label, plus a "scheduler" track carrying the per-phase
// scheduling overhead; spans become complete ("X") events with the
// CPU/disk/net breakdown in args, fault events and crash/restart instants
// become instant ("i") events, and every metric sample becomes a counter
// ("C") event.
//
// The output is byte for byte what encoding/json writes for those events
// (docs/OBSERVABILITY.md, "Export formats").
func (r *Recorder) WriteChrome(w io.Writer) error {
	labels := r.SiteLabels()
	schedTid := len(labels)

	// The Chrome "process" is the query: standalone runs are query 0, and
	// multi-query workloads (internal/sched) give each query its own id, so
	// merged timelines show one process track per query with the machine's
	// site threads repeated inside each.
	qid := r.QueryID()
	bw := bufio.NewWriter(w)
	c := chromeWriter{bw: bw, buf: make([]byte, 0, 512), pid: qid}
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")

	procName := "gamma simulator (simulated time)"
	if qid != 0 {
		procName = "query " + strconv.Itoa(qid) + " (simulated time)"
	}
	c.end(appendJSONString(c.meta("process_name", 0, `"name":`), procName))
	for site, label := range labels {
		c.end(appendJSONString(c.meta("thread_name", site, `"name":`), label))
		c.end(strconv.AppendInt(c.meta("thread_sort_index", site, `"sort_index":`), int64(site), 10))
	}
	c.end(appendJSONString(c.meta("thread_name", schedTid, `"name":`), "scheduler"))
	c.end(strconv.AppendInt(c.meta("thread_sort_index", schedTid, `"sort_index":`), int64(schedTid), 10))

	for _, s := range r.Spans() {
		tid := s.Site
		if tid < 0 {
			tid = schedTid
		}
		b := c.begin(s.Op, s.Role, "X", tid, usec(s.Start), usec(s.Dur), "")
		b = strconv.AppendInt(append(b, `"attempt":`...), int64(s.Attempt), 10)
		if s.Bucket >= 0 {
			b = strconv.AppendInt(append(b, `,"bucket":`...), int64(s.Bucket), 10)
		}
		b = strconv.AppendInt(append(b, `,"cpu_ns":`...), s.CPU.Nanoseconds(), 10)
		b = strconv.AppendInt(append(b, `,"disk_ns":`...), s.Disk.Nanoseconds(), 10)
		b = strconv.AppendInt(append(b, `,"net_ns":`...), s.Net.Nanoseconds(), 10)
		b = strconv.AppendInt(append(b, `,"phase":`...), int64(s.Phase), 10)
		b = appendJSONString(append(b, `,"phase_name":`...), s.PhaseName)
		c.end(b)
		for _, ev := range s.Events {
			b := c.begin(ev.Kind, "fault", "i", tid, usec(ev.At), 0, "t")
			b = strconv.AppendInt(append(b, `"detail":`...), ev.Detail, 10)
			b = appendJSONString(append(b, `,"op":`...), s.Op)
			c.end(b)
		}
	}
	for _, in := range r.Instants() {
		tid := in.Site
		if tid < 0 {
			tid = schedTid
		}
		b := c.begin(in.Kind, "fault", "i", tid, usec(in.At), 0, "p")
		b = strconv.AppendInt(append(b, `"attempt":`...), int64(in.Attempt), 10)
		b = appendJSONString(append(b, `,"detail":`...), in.Detail)
		c.end(b)
	}
	for _, smp := range r.Metrics().Samples() {
		ts := usecAt(smp.At)
		for _, kv := range smp.Values {
			b := c.begin(kv.Name, "", "C", 0, ts, 0, "")
			c.end(strconv.AppendInt(append(b, `"value":`...), kv.V, 10))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteSpansTSV dumps the spans as a flat tab-separated table (one row per
// operator process per phase), convenient for ad-hoc analysis with awk or a
// spreadsheet. Events are folded into the last column as kind@ns(detail)
// pairs separated by spaces.
func (r *Recorder) WriteSpansTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("query\tattempt\tphase\tphase_name\tsite\trole\top\tbucket\tstart_ns\tdur_ns\tcpu_ns\tdisk_ns\tnet_ns\tevents\n")
	qid := int64(r.QueryID())
	b := make([]byte, 0, 256)
	for _, s := range r.Spans() {
		b = strconv.AppendInt(b[:0], qid, 10)
		b = appendTab(b, int64(s.Attempt))
		b = appendTab(b, int64(s.Phase))
		b = append(append(b, '\t'), s.PhaseName...)
		b = appendTab(b, int64(s.Site))
		b = append(append(b, '\t'), s.Role...)
		b = append(append(b, '\t'), s.Op...)
		b = appendTab(b, int64(s.Bucket))
		b = appendTab(b, s.Start.Nanoseconds())
		b = appendTab(b, s.Dur.Nanoseconds())
		b = appendTab(b, s.CPU.Nanoseconds())
		b = appendTab(b, s.Disk.Nanoseconds())
		b = appendTab(b, s.Net.Nanoseconds())
		b = append(b, '\t')
		for i, ev := range s.Events {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, ev.Kind...)
			b = append(b, '@')
			b = strconv.AppendInt(b, ev.At.Nanoseconds(), 10)
			b = append(b, '(')
			b = strconv.AppendInt(b, ev.Detail, 10)
			b = append(b, ')')
		}
		bw.Write(append(b, '\n'))
	}
	return bw.Flush()
}

// appendTab appends a tab and then v in decimal.
func appendTab(b []byte, v int64) []byte {
	return strconv.AppendInt(append(b, '\t'), v, 10)
}

// WriteMetricsTSV dumps the per-phase metric time series. value is the
// sampled value (cumulative for counters, per-phase for gauges); delta is
// the per-phase activity for both kinds.
func (r *Recorder) WriteMetricsTSV(w io.Writer) error {
	return r.Metrics().WriteTSV(w)
}

// WriteTSV dumps a registry's time series in the same format as
// Recorder.WriteMetricsTSV, for standalone registries (the workload
// engine's admission metrics).
func (m *Metrics) WriteTSV(w io.Writer) error {
	// One snapshot: the sorted names, which of them are counters, and the
	// samples. Every sample's values are a sorted subset of the names
	// (names are only ever added), so one merge walk per sample finds each
	// value's name index.
	m.mu.Lock()
	names := append([]string(nil), m.names...)
	counter := make([]bool, len(names))
	for i, name := range names {
		counter[i] = m.counters[name] != nil
	}
	samples := append([]Sample(nil), m.samples...)
	m.mu.Unlock()

	bw := bufio.NewWriter(w)
	bw.WriteString("attempt\tphase\tphase_name\tat_ns\tmetric\tvalue\tdelta\n")
	prev := make([]int64, len(names))
	b := make([]byte, 0, 128)
	for _, smp := range samples {
		j := 0
		for _, kv := range smp.Values {
			for names[j] != kv.Name {
				j++
			}
			delta := kv.V
			if counter[j] {
				delta = kv.V - prev[j]
				prev[j] = kv.V
			}
			b = strconv.AppendInt(b[:0], int64(smp.Attempt), 10)
			b = appendTab(b, int64(smp.Phase))
			b = append(append(b, '\t'), smp.PhaseName...)
			b = appendTab(b, smp.At)
			b = append(append(b, '\t'), kv.Name...)
			b = appendTab(b, kv.V)
			b = appendTab(b, delta)
			bw.Write(append(b, '\n'))
		}
	}
	return bw.Flush()
}

// appendJSONString appends s as encoding/json's Marshal writes a string:
// quoted, with '"' and '\\' backslash-escaped, \b \f \n \r \t short-escaped,
// the other control bytes and the HTML characters <, > and & as \u00XX
// escapes, invalid UTF-8 as the U+FFFD escape, and U+2028 and U+2029
// escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite f as encoding/json's Marshal writes a
// float64: the shortest 'f' form, or the 'e' form with a two-digit negative
// exponent shortened (e-09 to e-9) when 0 < |f| < 1e-6 or |f| >= 1e21.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
