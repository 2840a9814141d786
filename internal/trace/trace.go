// Package trace is the simulator's observability layer: deterministic span
// tracing and per-phase metrics keyed on simulated time.
//
// The recorder keeps a virtual clock that advances only at phase barriers by
// the phase's simulated elapsed time (work + scheduling), exactly mirroring
// how gamma.Query accumulates response time. Every operator process
// (selection, split, build, probe, sort, merge — one goroutine per site per
// role per phase) opens a span at the phase's virtual start. The span carries
// the process's cost.Acct — the one account the process charges — and
// closing it at the barrier stamps the span with its overlapped duration and
// CPU/disk/net breakdown, and lifts the account's fault events (disk
// retries, retransmits, memory pressure) onto the span at absolute simulated
// time. gamma.Phase opens and closes every worker span, so the spans are
// the phase ledger itself, not a copy of it.
//
// Spans only read the accounts and the clock only follows the cost model:
// recording never changes a reported nanosecond. Exports (Chrome
// trace_event JSON, TSV, folded stacks) emit in a canonical sort order,
// making trace files byte-identical across runs of the same spec — they live
// under the same determinism gate as the reports themselves.
package trace

import (
	"sort"
	"sync"

	"gammajoin/internal/cost"
)

// Span is one operator process's activity during one phase at one site.
// Start/Dur are simulated nanoseconds; Dur is the account's overlapped
// elapsed time (max of CPU, disk, net), matching the cost model.
type Span struct {
	Attempt   int    // query attempt (restarts increment it)
	Phase     int    // per-attempt phase ordinal
	PhaseName string // e.g. "hybrid partition S + probe bucket 1"
	Site      int    // executing site; -1 for the scheduler track
	Op        string // operator, e.g. "scan", "build", "probe b3"
	Role      string // launch role: produce, consume, write, solo, sched
	Bucket    int    // bucket/partition number, -1 when not applicable

	Start cost.SimNs // phase virtual start
	Dur   cost.SimNs // overlapped elapsed time

	CPU, Disk, Net cost.SimNs // resource breakdown from the cost model

	Events []Event // fault events at absolute simulated time

	acct cost.Acct // the operator process's account, read by Close
}

// End returns the span's simulated end time.
func (s *Span) End() cost.SimNs { return s.Start + s.Dur }

// Event is a point annotation on the timeline: a span-attached fault event
// or a recorder-level instant (crash, restart).
type Event struct {
	Kind   string     // e.g. "disk.retry", "net.retransmit", "crash"
	Detail int64      // numeric payload (file id, packet count, ...)
	At     cost.SimNs // absolute simulated time
}

// Instant is a recorder-level point event on a site's track (site crashes,
// query restarts) — faults that belong to no single operator account.
type Instant struct {
	Attempt int
	Phase   int // last phase ordinal begun when the instant fired
	Site    int
	Kind    string
	Detail  string
	At      cost.SimNs // absolute simulated time
}

// Recorder collects spans, instants, and metrics for one query execution.
// Start may be called from any number of worker goroutines; clock methods
// (NewAttempt, BeginPhase, EndPhase) must be called by the coordinator at
// phase barriers.
type Recorder struct {
	labels []string // per-site track labels, index = site id

	queryID int // workload query id; 0 for standalone runs

	mu        sync.Mutex
	now       cost.SimNs // virtual clock
	attempt   int        // current attempt, -1 before NewAttempt
	phase     int        // per-attempt phase ordinal, -1 between attempts
	phaseName string
	spans     []*Span
	slab      []Span // spans not yet handed out; newSpan carves from it
	instants  []Instant

	metrics *Metrics
}

// NewRecorder creates a recorder for a machine whose site i is labelled
// labels[i] (the scheduler track is implicit). The first attempt must be
// opened with NewAttempt before phases begin.
func NewRecorder(siteLabels []string) *Recorder {
	return &Recorder{
		labels:  append([]string(nil), siteLabels...),
		attempt: -1,
		phase:   -1,
		metrics: NewMetrics(),
	}
}

// SetQuery stamps the recorder with a workload query id. The id is a whole
// extra span dimension for multi-query runs (internal/sched): exporters key
// the timeline's process on it, so concurrent queries land on separate
// process tracks while site/phase/attempt semantics stay unchanged. Call
// before the first phase; id 0 (the default) means a standalone query.
func (r *Recorder) SetQuery(id int) {
	r.queryID = id
}

// QueryID returns the workload query id set by SetQuery (0 when unset).
func (r *Recorder) QueryID() int {
	return r.queryID
}

// SiteLabels returns the per-site track labels.
func (r *Recorder) SiteLabels() []string {
	return r.labels
}

// Metrics returns the recorder's metrics registry.
func (r *Recorder) Metrics() *Metrics {
	return r.metrics
}

// Now returns the virtual clock in simulated nanoseconds.
func (r *Recorder) Now() cost.SimNs {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

// NewAttempt opens the next query attempt (the first, or a post-crash
// restart) and returns its ordinal. The clock keeps running: an abandoned
// attempt's phases remain on the timeline as wasted work.
func (r *Recorder) NewAttempt() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempt++
	r.phase = -1
	r.phaseName = ""
	return r.attempt
}

// Attempt returns the current attempt ordinal.
func (r *Recorder) Attempt() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempt
}

// BeginPhase marks the start of a barrier-synchronized phase. Spans started
// until EndPhase inherit the phase ordinal, name, and virtual start time.
func (r *Recorder) BeginPhase(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phase++
	r.phaseName = name
}

// EndPhase closes the current phase: it appends a scheduler span covering
// the phase's scheduling overhead, samples the metrics registry, and
// advances the virtual clock by work+sched — the phase's contribution to
// response time.
func (r *Recorder) EndPhase(work, sched cost.SimNs) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*r.newSpan() = Span{
		Attempt:   r.attempt,
		Phase:     r.phase,
		PhaseName: r.phaseName,
		Site:      -1,
		Op:        "schedule",
		Role:      "sched",
		Bucket:    -1,
		Start:     r.now + work,
		Dur:       sched,
		CPU:       sched,
	}
	r.now += work + sched
	r.metrics.Sample(r.attempt, r.phase, r.phaseName, r.now.Nanoseconds())
}

// Start opens a span for one operator process at site. bucket is the
// bucket/partition the operator works on, or -1. The process charges the
// span's account (Acct); Close stamps the span from it once the process has
// finished.
func (r *Recorder) Start(site int, op, role string, bucket int) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.newSpan()
	*s = Span{
		Attempt:   r.attempt,
		Phase:     r.phase,
		PhaseName: r.phaseName,
		Site:      site,
		Op:        op,
		Role:      role,
		Bucket:    bucket,
		Start:     r.now,
	}
	return s
}

// spanSlab is how many spans one slab holds: a paper-scale join records
// about 205, one per operator process and one scheduler span per phase,
// so it carves them from four slabs.
const spanSlab = 64

// newSpan records a new zero span, carved from the recorder's slab. Spans
// are never freed one by one, so a slab lives as long as the recorder.
// The caller holds r.mu.
func (r *Recorder) newSpan() *Span {
	if len(r.slab) == 0 {
		r.slab = make([]Span, spanSlab)
	}
	s := &r.slab[0]
	r.slab = r.slab[1:]
	r.spans = append(r.spans, s)
	return s
}

// Acct returns the account the span carries. Each operator process charges
// its own span's account; it is not safe for concurrent use.
func (s *Span) Acct() *cost.Acct { return &s.acct }

// Close stamps the span from its finished account: overlapped duration,
// resource breakdown, and the account's events shifted to absolute
// simulated time. Close reads the account and never charges it.
func (s *Span) Close() {
	a := &s.acct
	s.CPU, s.Disk, s.Net = a.CPU, a.Disk, a.Net
	s.Dur = a.Elapsed()
	for _, ev := range a.Events {
		s.Events = append(s.Events, Event{Kind: ev.Kind, Detail: ev.Detail, At: s.Start + ev.At})
	}
}

// Instant records a point event on a site's track at the current virtual
// time — used for faults that belong to the run, not to one operator
// account (site crashes, query restarts).
func (r *Recorder) Instant(site int, kind, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.instants = append(r.instants, Instant{
		Attempt: r.attempt,
		Phase:   r.phase,
		Site:    site,
		Kind:    kind,
		Detail:  detail,
		At:      r.now,
	})
}

// Spans returns the recorded spans in canonical order: (attempt, phase,
// site, role, op), with the scheduler track last within each phase. The
// coordinator registers a phase's spans role by role before any worker runs
// (gamma.Phase.Worker); the canonical sort puts every export in track order
// and makes it a function of the spans alone.
func (r *Recorder) Spans() []*Span {
	r.mu.Lock()
	spans := append([]*Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if sa, sb := trackOrder(a.Site), trackOrder(b.Site); sa != sb {
			return sa < sb
		}
		if ra, rb := roleRank(a.Role), roleRank(b.Role); ra != rb {
			return ra < rb
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		// A failover can rehost a dead site's role onto its ring successor,
		// which then carries two spans with the same (site, role, op) in one
		// phase. Break such ties on every remaining exported field so the
		// order, and therefore the export bytes, cannot depend on the
		// registration order.
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		if a.CPU != b.CPU {
			return a.CPU < b.CPU
		}
		if a.Disk != b.Disk {
			return a.Disk < b.Disk
		}
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		return lessEvents(a.Events, b.Events)
	})
	return spans
}

// lessEvents orders two span event lists lexicographically — the final span
// tie-breaker. Lists that compare equal here make the spans identical in
// every exported field, so their relative order is unobservable.
func lessEvents(a, b []Event) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Kind != b[i].Kind {
			return a[i].Kind < b[i].Kind
		}
		if a[i].Detail != b[i].Detail {
			return a[i].Detail < b[i].Detail
		}
		if a[i].At != b[i].At {
			return a[i].At < b[i].At
		}
	}
	return len(a) < len(b)
}

// Instants returns the recorded instants (already in coordinator order).
func (r *Recorder) Instants() []Instant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Instant(nil), r.instants...)
}

// trackOrder sorts real sites first, the scheduler pseudo-site last.
func trackOrder(site int) int {
	if site < 0 {
		return int(^uint(0) >> 1) // scheduler last
	}
	return site
}

func roleRank(role string) int {
	switch role {
	case "produce":
		return 0
	case "consume":
		return 1
	case "write":
		return 2
	case "solo":
		return 3
	case "sched":
		return 4
	default:
		return 5
	}
}
