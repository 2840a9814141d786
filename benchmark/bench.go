package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/gamma"
	"gammajoin/internal/profile"
	"gammajoin/internal/walltime"
)

// config sizes and times one workload run.
type config struct {
	workload       string
	outerN, innerN int
	seed           uint64
	seconds        float64 // timed budget; 0 runs exactly one timed pass
	trace          bool
}

// setupReps is how many times a run generates and loads its relations;
// setup_s is the median.
const setupReps = 5

// snapshot is the process's resource use at one instant.
type snapshot struct {
	wall                time.Time
	cpu                 time.Duration
	mallocs, allocBytes uint64
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{wall: walltime.Now(), cpu: processCPU(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// processCPU is the user plus system CPU time of every thread of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only for an unknown "who"; RUSAGE_SELF is always known.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally accumulates the timed passes of one mode, untraced or traced.
// Times in samples, tuplesPerS and cpuMsPerJoin are scaled to the
// calibration host's speed (see probe.go); cpu is as measured.
type tally struct {
	samples []time.Duration // host wall time per join
	cpu     time.Duration   // over the timed sections only
	joins   int64
	passes  int
	// Per-pass rates. Their medians are the reported metrics, so neither a
	// pass slowed by a neighbour on the host nor one whose crash made the
	// join redo its work moves them.
	tuplesPerS, cpuMsPerJoin, allocMBPerJoin, allocsPerJoin []float64
}

// work sums what the timed joins' reports say they did. For one seed these
// counts repeat exactly from run to run.
type work struct {
	joins, rTuples, sTuples                  int64
	overflowClears, rOverflowed, sOverflowed int64
	filteredInner, filteredOuter             int64 // inputs of joins with bit filters
	filterDropped                            int64
	packetsLocal, packetsRemote              int64
	tuplesSent, tuplesLocal                  int64
	retransmits, duplicates                  int64
	disk                                     disk.Counters
	phases, restarts, failovers, redone      int64
	wastedSim                                time.Duration
	sortTuples                               int64 // inputs of sort-merge joins
	exportJoins                              int64
	spans, spanJoins                         int64 // traced passes only
}

func (w *work) add(j *joinRec, countSpans bool) {
	rep := j.rep
	w.joins++
	w.rTuples += j.spec.R.N
	w.sTuples += j.spec.S.N
	w.overflowClears += rep.OverflowClears
	w.rOverflowed += rep.ROverflowed
	w.sOverflowed += rep.SOverflowed
	if j.spec.BitFilter {
		w.filteredInner += j.spec.R.N
		w.filteredOuter += j.spec.S.N
		w.filterDropped += rep.FilterDropped
	}
	w.packetsLocal += rep.Net.PacketsLocal
	w.packetsRemote += rep.Net.PacketsRemote
	w.tuplesLocal += rep.Net.TuplesLocal.Count()
	w.tuplesSent += (rep.Net.TuplesLocal + rep.Net.TuplesRemote).Count()
	w.retransmits += rep.Net.PacketsRetransmitted
	w.duplicates += rep.Net.PacketsDuplicated
	w.disk = w.disk.Add(rep.Disk)
	w.phases += int64(len(rep.Phases))
	w.restarts += int64(rep.Restarts)
	w.failovers += int64(rep.FailedOver)
	w.redone += int64(rep.PhasesRedone)
	w.wastedSim += rep.WastedWork
	if j.spec.Alg == core.SortMerge {
		w.sortTuples += j.spec.R.N + j.spec.S.N
	}
	if j.exports {
		w.exportJoins++
	}
	if countSpans {
		w.spans += int64(len(rep.Trace.Spans()))
		w.spanJoins++
	}
}

// schedTally sums the multiuser workload's engine results over timed passes.
type schedTally struct {
	passes                     int
	selfMs                     []float64 // Engine.Run wall minus its executor calls, per pass
	waitS, ratio, qps, peakMPL float64   // sums of per-pass values
}

// setupStats holds one value per setup repetition.
type setupStats struct {
	seconds, genNs, loadNs, loadAllocs []float64
}

// joinRec is one join of the current pass, checked once the pass ends.
type joinRec struct {
	key     string
	want    oracle
	spec    core.Spec
	exports bool
	rep     *core.Report
	err     error
	wall    time.Duration
}

// runner drives one workload: setup, a warm-up pass, timed passes, and in
// traced mode traced passes and the layer replays.
type runner struct {
	cfg   config
	model *cost.Model
	tr    *tracer
	check *verifier
	probe *hostProbe

	parent  int       // span the next join hangs under
	pending []joinRec // joins of the current pass
	cur     *tally    // nil outside timed passes

	untraced, traced tally
	work             work
	sched            schedTally
	setup            setupStats
	replays          replayCosts
	probeMs          []float64    // every probe time of the run
	simPass0         float64      // Σ simulated response of the warm-up pass's joins
	last             *core.Report // latest verified report, for the exporter replays

	attempted, failed int64
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, model: cost.Default(), check: newVerifier()}
	if cfg.trace {
		r.tr = newTracer(cfg.workload)
	}
	return r
}

// runWorkload runs cfg's workload end to end and returns the runner holding
// every measurement.
func runWorkload(cfg config) (*runner, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	r := newRunner(cfg)
	r.probe = probe
	if err := r.runSetup(w); err != nil {
		return nil, err
	}
	// End-to-end numbers come from untraced passes. A traced run spends half
	// its budget on them (for bench.trace_overhead), a quarter on traced
	// passes, and the rest of its time on the replays.
	r.setPaused(true)
	r.runPass(w, 0)
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	next := r.timedPasses(w, 1, &r.untraced, budget)
	if cfg.trace {
		r.setPaused(false)
		r.timedPasses(w, next, &r.traced, cfg.seconds/4)
		r.replays = r.replay(w.replayInput())
	}
	return r, nil
}

func (r *runner) setPaused(p bool) {
	if r.tr != nil {
		r.tr.paused = p
	}
}

// runProbe runs the host probe and records its time.
func (r *runner) runProbe() time.Duration {
	d := r.probe.run()
	r.probeMs = append(r.probeMs, ms(d))
	return d
}

func (r *runner) runSetup(w workload) error {
	for i := 0; i < setupReps; i++ {
		before := r.runProbe()
		runtime.GC()
		sp := r.tr.begin("setup.generate", 0)
		t0 := walltime.Now()
		generated := w.generate(r.cfg)
		gen := walltime.Since(t0)
		r.tr.end(sp)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp = r.tr.begin("setup.load", 0)
		t1 := walltime.Now()
		loaded, err := w.load(r)
		load := walltime.Since(t1)
		r.tr.end(sp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		k := scale(before, r.runProbe())
		s := &r.setup
		s.seconds = append(s.seconds, (gen+load).Seconds()*k)
		s.genNs = append(s.genNs, float64(gen.Nanoseconds())/float64(generated))
		s.loadNs = append(s.loadNs, float64(load.Nanoseconds())/float64(loaded))
		s.loadAllocs = append(s.loadAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(loaded))
	}
	return nil
}

// timedPasses runs passes from first on into t until seconds have elapsed,
// at least one, and returns the next pass number.
func (r *runner) timedPasses(w workload, first int, t *tally, seconds float64) int {
	r.cur = t
	defer func() { r.cur = nil }()
	start := walltime.Now()
	p := first
	for {
		r.runPass(w, p)
		p++
		if walltime.Since(start).Seconds() >= seconds {
			return p
		}
	}
}

// runPass runs pass p. Preparation, the host probes on either side and the
// collection that precedes it stay outside the timed section; the joins'
// checks follow it.
func (r *runner) runPass(w workload, p int) {
	if err := w.prepare(r, p); err != nil {
		r.attempted++
		r.fail(fmt.Errorf("pass %d: prepare: %w", p, err))
		return
	}
	before := r.runProbe()
	runtime.GC()
	if r.tr != nil {
		r.tr.pass = p
	}
	sp := r.tr.begin("pass", 0)
	r.parent = sp
	s0 := takeSnapshot()
	err := w.run(r, p)
	s1 := takeSnapshot()
	r.tr.end(sp)
	k := scale(before, r.runProbe())
	if err != nil {
		r.attempted++
		r.fail(fmt.Errorf("pass %d: %w", p, err))
	}
	r.settle(p, s0, s1, k)
}

// join runs one join and, when exports is set, the trace and profile
// exporters on its report; the host wall time of both is one sample.
func (r *runner) join(c *gamma.Cluster, spec core.Spec, want oracle, key string, exports bool) (*core.Report, error) {
	sp := r.tr.begin("join", r.parent)
	start := walltime.Now()
	rep, err := core.Run(c, spec)
	if err == nil && exports {
		err = r.export(rep, sp)
	}
	wall := walltime.Since(start)
	r.tr.end(sp)
	r.pending = append(r.pending, joinRec{key: key, want: want, spec: spec, exports: exports, rep: rep, err: err, wall: wall})
	return rep, err
}

// export writes rep's Chrome trace, span and metric tables and text profile
// to io.Discard, as a user exporting every run would.
func (r *runner) export(rep *core.Report, parent int) error {
	writers := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"export.chrome", rep.Trace.WriteChrome},
		{"export.spans_tsv", rep.Trace.WriteSpansTSV},
		{"export.metrics_tsv", rep.Trace.WriteMetricsTSV},
	}
	for _, wr := range writers {
		sp := r.tr.begin(wr.name, parent)
		err := wr.fn(io.Discard)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", wr.name, err)
		}
	}
	sp := r.tr.begin("profile.from_report", parent)
	prof, err := profile.FromReport(rep, r.model)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("profile.write_text", parent)
	err = prof.WriteText(io.Discard)
	r.tr.end(sp)
	return err
}

// settle checks the pass's joins and, in a timed pass, adds them and the
// pass's resource use to the current tally, scaling its times by k.
func (r *runner) settle(p int, s0, s1 snapshot, k float64) {
	countSpans := r.tr != nil && !r.tr.paused
	var joins, tuples int64
	for i := range r.pending {
		j := &r.pending[i]
		r.attempted++
		if err := r.check.verify(j.key, j.want, j.rep, j.err); err != nil {
			r.fail(err)
			continue
		}
		r.last = j.rep
		if p == 0 {
			r.simPass0 += j.rep.Response.Seconds()
		}
		if r.cur == nil {
			continue
		}
		r.cur.samples = append(r.cur.samples, time.Duration(float64(j.wall)*k))
		joins++
		tuples += j.spec.R.N + j.spec.S.N
		r.work.add(j, countSpans)
	}
	// Drop the references too: a rebuilt cluster's relations must not
	// outlive the pass that used them.
	clear(r.pending)
	r.pending = r.pending[:0]
	if t := r.cur; t != nil {
		cpu := s1.cpu - s0.cpu
		t.passes++
		t.joins += joins
		t.cpu += cpu
		t.tuplesPerS = append(t.tuplesPerS, ratio(float64(tuples), s1.wall.Sub(s0.wall).Seconds()*k))
		t.cpuMsPerJoin = append(t.cpuMsPerJoin, ratio(ms(cpu)*k, float64(joins)))
		t.allocMBPerJoin = append(t.allocMBPerJoin, ratio(float64(s1.allocBytes-s0.allocBytes)/1e6, float64(joins)))
		t.allocsPerJoin = append(t.allocsPerJoin, ratio(float64(s1.mallocs-s0.mallocs), float64(joins)))
	}
}

// maxReported bounds how many failures a run describes on standard error.
const maxReported = 5

func (r *runner) fail(err error) {
	r.failed++
	if r.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", r.cfg.workload, err)
	}
}

// endToEndValues computes every end-to-end metric from the untraced passes.
func (r *runner) endToEndValues() map[string]float64 {
	u := &r.untraced
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return map[string]float64{
		"tuples_per_s":      median(u.tuplesPerS),
		"join_ms_p50":       percentile(u.samples, 50),
		"join_ms_p95":       percentile(u.samples, 95),
		"cpu_ms_per_join":   median(u.cpuMsPerJoin),
		"alloc_mb_per_join": median(u.allocMBPerJoin),
		"allocs_per_join":   median(u.allocsPerJoin),
		"peak_heap_mb":      float64(mem.HeapSys) / 1e6,
		"setup_s":           median(r.setup.seconds),
	}
}

// result assembles the run's result line: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *runner) result() (*result, error) {
	defs, vals := endToEnd, r.endToEndValues()
	if r.cfg.trace {
		defs, vals = perLayer, r.layerValues()
	}
	m, err := fill(defs, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}
