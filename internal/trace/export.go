package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gammajoin/internal/cost"
)

// Exporters. All of them emit in the canonical span order (see Spans), so
// the same execution always serializes to the same bytes — trace files are
// covered by the determinism gate exactly like the simulator's reports.
//
// Timestamps: the Chrome trace_event format counts in microseconds; the
// simulator counts in nanoseconds. Values are emitted as µs with fractional
// ns (float64 — Go's shortest-representation formatting is deterministic).

// chromeEvent is one trace_event record. Only the fields a given phase
// ("ph") uses are populated.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func usec(ns cost.SimNs) float64 { return ns.Micros() }

// usecAt converts the bare-ns metric-sample timestamps.
func usecAt(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChrome emits the trace in Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing. One thread (track) per site, named after
// the site's label, plus a "scheduler" track carrying the per-phase
// scheduling overhead; spans become complete ("X") events with the
// CPU/disk/net breakdown in args, fault events and crash/restart instants
// become instant ("i") events, and every metric sample becomes a counter
// ("C") event.
func (r *Recorder) WriteChrome(w io.Writer) error {
	schedTid := len(r.SiteLabels())

	// The Chrome "process" is the query: standalone runs are query 0, and
	// multi-query workloads (internal/sched) give each query its own id, so
	// merged timelines show one process track per query with the machine's
	// site threads repeated inside each.
	qid := r.QueryID()
	procName := "gamma simulator (simulated time)"
	if qid != 0 {
		procName = fmt.Sprintf("query %d (simulated time)", qid)
	}
	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: qid,
		Args: map[string]any{"name": procName},
	})
	for site, label := range r.SiteLabels() {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: qid, Tid: site,
			Args: map[string]any{"name": label},
		})
		evs = append(evs, chromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: qid, Tid: site,
			Args: map[string]any{"sort_index": site},
		})
	}
	evs = append(evs, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: qid, Tid: schedTid,
		Args: map[string]any{"name": "scheduler"},
	})
	evs = append(evs, chromeEvent{
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
		evs = append(evs, chromeEvent{
			Name: s.Op, Cat: s.Role, Ph: "X", Pid: qid, Tid: tid,
			Ts: usec(s.Start), Dur: usec(s.Dur), Args: args,
		})
		for _, ev := range s.Events {
			evs = append(evs, chromeEvent{
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
		evs = append(evs, chromeEvent{
			Name: in.Kind, Cat: "fault", Ph: "i", Pid: qid, Tid: tid,
			Ts: usec(in.At), S: "p",
			Args: map[string]any{"detail": in.Detail, "attempt": in.Attempt},
		})
	}
	for _, smp := range r.Metrics().Samples() {
		for _, kv := range smp.Values {
			evs = append(evs, chromeEvent{
				Name: kv.Name, Ph: "C", Pid: qid, Ts: usecAt(smp.At),
				Args: map[string]any{"value": kv.V},
			})
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSpansTSV dumps the spans as a flat tab-separated table (one row per
// operator process per phase), convenient for ad-hoc analysis with awk or a
// spreadsheet. Events are folded into the last column as kind@ns(detail)
// pairs separated by spaces.
func (r *Recorder) WriteSpansTSV(w io.Writer) error {
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
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "attempt\tphase\tphase_name\tat_ns\tmetric\tvalue\tdelta")
	prev := make(map[string]int64)
	for _, smp := range m.Samples() {
		for _, kv := range smp.Values {
			delta := kv.V
			if m.IsCounter(kv.Name) {
				delta = kv.V - prev[kv.Name]
				prev[kv.Name] = kv.V
			}
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%s\t%d\t%d\n",
				smp.Attempt, smp.Phase, smp.PhaseName, smp.At, kv.Name, kv.V, delta)
		}
	}
	return bw.Flush()
}

// WriteFolded emits collapsed stacks ("site;phase;op value" with the value
// in CPU nanoseconds), the input format of flamegraph.pl and speedscope.
// Workload queries (QueryID != 0) get a "q<id>" root frame so that folded
// files from an MPL sweep can be concatenated into one flamegraph without
// the queries' identically-named sites merging into a single tower.
func (r *Recorder) WriteFolded(w io.Writer) error {
	root := ""
	if qid := r.QueryID(); qid != 0 {
		root = fmt.Sprintf("q%d;", qid)
	}
	labels := r.SiteLabels()
	agg := make(map[string]cost.SimNs)
	for _, s := range r.Spans() {
		if s.Site < 0 || s.CPU == 0 {
			continue
		}
		label := fmt.Sprintf("site %d", s.Site)
		if s.Site < len(labels) {
			label = labels[s.Site]
		}
		agg[root+label+";"+s.PhaseName+";"+s.Op] += s.CPU
	}
	stacks := make([]string, 0, len(agg))
	for k := range agg {
		stacks = append(stacks, k)
	}
	sort.Strings(stacks)
	bw := bufio.NewWriter(w)
	for _, k := range stacks {
		fmt.Fprintf(bw, "%s %d\n", k, agg[k])
	}
	return bw.Flush()
}
