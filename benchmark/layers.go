package main

import (
	"gammajoin/internal/tuple"
)

// layerValues computes every per-layer metric. Work counts come from the
// timed joins' reports and the sched engine's results; host costs per unit
// come from the setup timings and the replays.
func (r *runner) layerValues() map[string]float64 {
	w, c, s := &r.work, &r.replays, &r.sched
	per := func(n int64) float64 { return ratio(float64(n), float64(w.joins)) }
	perPass := func(sum float64) float64 { return ratio(sum, float64(s.passes)) }
	return map[string]float64{
		"wisconsin.generate_ns_per_tuple": median(r.setup.genNs),
		"gamma.load_ns_per_tuple":         median(r.setup.loadNs),
		"gamma.load_allocs_per_tuple":     median(r.setup.loadAllocs),
		"gamma.ht_insert_ns_per_tuple":    c.insertNs,
		"gamma.ht_probe_ns_per_tuple":     c.probeNs,
		"gamma.overflow_clears_per_join":  per(w.overflowClears),
		"gamma.overflow_tuples_per_join":  per(w.rOverflowed + w.sOverflowed),
		"gamma.build_useful_ratio":        ratio(float64(w.rTuples), float64(w.rTuples+w.rOverflowed)),
		"split.route_ns_per_tuple":        c.splitNs,
		"netsim.send_ns_per_tuple":        c.sendNs,
		"netsim.allocs_per_packet":        c.allocsPerPacket,
		"netsim.packets_remote_per_join":  per(w.packetsRemote),
		"netsim.packets_local_per_join":   per(w.packetsLocal),
		"netsim.local_fraction":           ratio(float64(w.tuplesLocal), float64(w.tuplesSent)),
		"netsim.retransmits_per_join":     per(w.retransmits),
		"netsim.duplicates_per_join":      per(w.duplicates),
		"bitfilter.ns_per_tuple":          c.filterNs,
		"bitfilter.dropped_per_join":      per(w.filterDropped),
		"bitfilter.drop_ratio":            ratio(float64(w.filterDropped), float64(w.filteredOuter)),
		"wiss.append_ns_per_page":         c.appendNs,
		"wiss.scan_ns_per_page":           c.scanNs,
		"wiss.sort_ns_per_page":           c.sortNs,
		"wiss.sort_allocs_per_page":       c.sortAllocs,
		"disk.pages_read_per_join":        per(w.disk.PagesRead.Count()),
		"disk.pages_written_per_join":     per(w.disk.PagesWritten.Count()),
		"disk.read_retries_per_join":      per(w.disk.ReadRetries),
		"disk.mirror_reads_per_join":      per(w.disk.MirrorReads.Count()),
		"disk.mirror_writes_per_join":     per(w.disk.MirrorWrites.Count()),
		"core.phases_per_join":            per(w.phases),
		"core.restarts_per_join":          per(w.restarts),
		"core.failovers_per_join":         per(w.failovers),
		"core.phases_redone_per_join":     per(w.redone),
		"core.wasted_sim_s_per_join":      ratio(w.wastedSim.Seconds(), float64(w.joins)),
		"core.sim_s_sum":                  r.simPass0,
		"core.unattributed_cpu_share":     r.unattributedCPU(),
		"sched.self_ms_per_pass":          median(s.selfMs),
		"sched.mean_wait_sim_s":           perPass(s.waitS),
		"sched.mean_ratio_at_admission":   perPass(s.ratio),
		"sched.peak_mpl":                  perPass(s.peakMPL),
		"sched.qps_sim":                   perPass(s.qps),
		"trace.spans_per_join":            ratio(float64(w.spans), float64(w.spanJoins)),
		"trace.chrome_ns_per_span":        c.chromeNs,
		"trace.chrome_allocs_per_span":    c.chromeAllocs,
		"trace.spans_tsv_ns_per_span":     c.spansTSVNs,
		"trace.metrics_tsv_ns_per_sample": c.metricsTSVNs,
		"profile.from_report_ns_per_span": c.fromReportNs,
		"profile.write_text_ns_per_span":  c.writeTextNs,
		"bench.host_probe_ms":             median(r.probeMs),
		"bench.trace_overhead":            ratio(percentile(r.traced.samples, 50), percentile(r.untraced.samples, 50)) - 1,
	}
}

// unattributedCPU estimates the share of the untraced joins' process CPU
// time that no replayed layer accounts for:
//
//	1 − Σ(layer work count × replay host ns per unit) ÷ CPU time.
//
// The counts are the reports' (tuples sent, inserted, probed and filtered,
// pages written, read and sorted, spans exported); each tuple sent is
// routed through a split table once.
func (r *runner) unattributedCPU() float64 {
	w, c := &r.work, &r.replays
	perPage := float64(r.model.TuplesPerPage(tuple.Bytes))
	spansPerJoin := ratio(float64(w.spans), float64(w.spanJoins))
	ns := float64(w.tuplesSent)*(c.splitNs+c.sendNs) +
		float64(w.rTuples+w.rOverflowed)*c.insertNs +
		float64(w.sTuples+w.sOverflowed-w.filterDropped)*c.probeNs +
		float64(w.filteredInner+w.filteredOuter)*c.filterNs +
		float64(w.disk.PagesWritten.Count())*c.appendNs +
		float64(w.disk.PagesRead.Count())*c.scanNs +
		float64(w.sortTuples)/perPage*c.sortNs +
		float64(w.exportJoins)*spansPerJoin*(c.chromeNs+c.spansTSVNs+c.fromReportNs+c.writeTextNs)
	u := &r.untraced
	cpuPerJoin := ratio(float64(u.cpu.Nanoseconds()), float64(u.joins))
	return 1 - ratio(ns, cpuPerJoin*float64(w.joins))
}
