package main

import (
	"io"
	"math"
	"runtime"
	"time"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/experiments"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/profile"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/walltime"
	"gammajoin/internal/wiss"
)

// The replays time each layer's public functions from outside, on the
// workload's own generated tuples and table shapes, and turn the times into
// host cost per simulated unit. Together with the reports' work counts they
// estimate how much of a join's CPU time each layer spends.

// replayReps is how many times each replay runs; the median counts.
const replayReps = 7

// replayInput is the data a workload's replays run on.
type replayInput struct {
	outer, inner         []tuple.Tuple
	partAttr             int // attribute the relations are declustered on
	diskSites, joinSites []int
}

// replayCosts are the host costs per unit the replays measured.
type replayCosts struct {
	splitNs, insertNs, probeNs, filterNs float64 // per tuple
	sendNs, allocsPerPacket              float64
	appendNs, scanNs, sortNs, sortAllocs float64 // per page
	chromeNs, chromeAllocs, spansTSVNs   float64 // per span
	metricsTSVNs                         float64 // per metrics sample
	fromReportNs, writeTextNs            float64 // per span
}

// stopwatch times the measured part of one replay repetition, leaving its
// untimed preparation out; it counts allocations over the same intervals.
type stopwatch struct {
	wall    time.Duration
	mallocs uint64
	start   time.Time
	m0      uint64
}

func (s *stopwatch) begin() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.m0 = m.Mallocs
	s.start = walltime.Now()
}

func (s *stopwatch) end() {
	s.wall += walltime.Since(s.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs += m.Mallocs - s.m0
}

// measure runs fn replayReps times under one span. fn returns the units its
// timed part processed and the units its allocations are charged to; the
// result is the median host ns and allocations per unit.
func (r *runner) measure(layer string, fn func(sw *stopwatch) (units, allocUnits int64)) (nsPer, allocsPer float64) {
	sp := r.tr.begin("replay."+layer, 0)
	defer r.tr.end(sp)
	var ns, allocs []float64
	for i := 0; i < replayReps; i++ {
		var sw stopwatch
		units, allocUnits := fn(&sw)
		ns = append(ns, ratio(float64(sw.wall.Nanoseconds()), float64(units)))
		allocs = append(allocs, ratio(float64(sw.mallocs), float64(allocUnits)))
	}
	return median(ns), median(allocs)
}

// bucketsFor is the Grace bucket count the optimizer picks at a memory
// ratio, before Appendix A's analyzer corrects it.
func bucketsFor(ratio float64) int {
	return int(math.Ceil(1/ratio - 1e-3))
}

func (r *runner) replay(in replayInput) replayCosts {
	var c replayCosts
	hashes := make([]uint64, len(in.outer))
	for i := range in.outer {
		hashes[i] = split.Hash(in.outer[i].Int(tuple.Unique1), 0)
	}
	innerHashes := make([]uint64, len(in.inner))
	for i := range in.inner {
		innerHashes[i] = split.Hash(in.inner[i].Int(tuple.Unique1), 0)
	}
	jt := &split.JoinTable{Sites: in.joinSites}
	ratios := experiments.MemRatios

	// split: hash each outer tuple and route it through a Grace
	// partitioning table and the joining table, at every ratio's shape.
	buckets, sites := make([]int, len(in.outer)), make([]int, len(in.outer))
	c.splitNs, _ = r.measure("split", func(sw *stopwatch) (int64, int64) {
		sw.begin()
		for _, ratio := range ratios {
			n := split.AnalyzeBuckets(false, len(in.diskSites), len(in.joinSites), bucketsFor(ratio))
			// NewGrace fails only without disk sites or buckets; the sites
			// come from a built cluster and n is at least 1.
			pt, _ := split.NewGrace(n, in.diskSites)
			for i := range in.outer {
				hashes[i] = split.Hash(in.outer[i].Int(tuple.Unique1), 0)
			}
			pt.LookupBatch(hashes, buckets, sites)
			jt.LookupBatch(hashes, sites)
		}
		sw.end()
		n := int64(len(ratios) * len(in.outer))
		return n, n
	})

	// gamma.HashTable: build one bucket's worth of the inner relation into a
	// table of that capacity, then probe it with one bucket's worth of outer
	// tuples, at every ratio.
	var acct cost.Acct
	c.insertNs, _ = r.measure("gamma.insert", func(sw *stopwatch) (int64, int64) {
		var n int64
		for _, ratio := range ratios {
			k := int(ratio * float64(len(in.inner)))
			ht := gamma.NewHashTable(r.model, int64(k+1)*tuple.Bytes, tuple.Unique1)
			sw.begin()
			for i := 0; i < k; i++ {
				if !gamma.AboveCutoff(ht.Cutoff(), innerHashes[i]) {
					ht.Insert(&acct, &in.inner[i], innerHashes[i])
				}
			}
			sw.end()
			n += int64(k)
			ht.Release()
		}
		return n, n
	})
	c.probeNs, _ = r.measure("gamma.probe", func(sw *stopwatch) (int64, int64) {
		var n, matches int64
		for _, ratio := range ratios {
			k := int(ratio * float64(len(in.inner)))
			ht := gamma.NewHashTable(r.model, int64(k+1)*tuple.Bytes, tuple.Unique1)
			for i := 0; i < k; i++ {
				ht.Insert(&acct, &in.inner[i], innerHashes[i])
			}
			probes := int(ratio * float64(len(in.outer)))
			sw.begin()
			ht.ProbeBatch(&acct, in.outer[:probes], hashes[:probes], tuple.Unique1,
				func(_, _ *tuple.Tuple) { matches++ })
			sw.end()
			n += int64(probes)
			ht.Release()
		}
		return n, n
	})

	// netsim: each disk site sends its fragment to the joining sites the
	// joining table picks, so the local/remote mix is the workload's own.
	frags := fragments(in)
	c.sendNs, c.allocsPerPacket = r.measure("netsim", func(sw *stopwatch) (int64, int64) {
		net := netsim.New(r.model)
		deliver := func(_ int, run []*netsim.Batch) {
			for _, b := range run {
				net.Recv(&acct, b)
			}
			netsim.PutBatches(run)
			netsim.PutRun(run)
		}
		var n int64
		sw.begin()
		for _, f := range frags {
			s := net.NewSender(&acct, f.site, deliver)
			for i := range f.tuples {
				s.Send(jt.Lookup(f.hashes[i]), 0, &f.tuples[i], f.hashes[i])
			}
			s.FlushAll()
			s.Release()
			n += int64(len(f.tuples))
		}
		sw.end()
		nc := net.Counters()
		return n, nc.PacketsLocal + nc.PacketsRemote
	})

	// bitfilter: one Gamma-sized filter per joining site; the inner relation
	// sets bits and the outer relation tests them.
	bits := bitfilter.PerSiteBits(r.model.P.PacketBytes, r.model.P.FilterOverheadBitsPerSite, len(in.joinSites))
	c.filterNs, _ = r.measure("bitfilter", func(sw *stopwatch) (int64, int64) {
		filters := make([]*bitfilter.Filter, len(in.joinSites))
		for i := range filters {
			filters[i] = bitfilter.New(bits)
		}
		var pass int64
		sw.begin()
		for _, h := range innerHashes {
			filters[jt.Index(h)].Set(h)
		}
		for _, h := range hashes {
			if filters[jt.Index(h)].Test(h) {
				pass++
			}
		}
		sw.end()
		n := int64(len(innerHashes) + len(hashes))
		return n, n
	})

	// wiss: one disk site's fragment appended, scanned, and externally
	// sorted at every ratio's share of the fragment as sort memory.
	frag := frags[0].tuples
	d := disk.New(0, r.model)
	c.appendNs, _ = r.measure("wiss.append", func(sw *stopwatch) (int64, int64) {
		f := wiss.NewFile("replay.append", d, r.model)
		sw.begin()
		f.AppendBatch(&acct, frag)
		f.Flush(&acct)
		sw.end()
		pages := int64(f.Pages())
		f.Recycle()
		return pages, pages
	})
	c.scanNs, _ = r.measure("wiss.scan", func(sw *stopwatch) (int64, int64) {
		f := wiss.NewFile("replay.scan", d, r.model)
		f.AppendBatch(&acct, frag)
		f.Flush(&acct)
		var n int64
		sw.begin()
		f.Scan(&acct, func(*tuple.Tuple) bool { n++; return true })
		sw.end()
		pages := int64(f.Pages())
		f.Recycle()
		return pages, pages
	})
	c.sortNs, c.sortAllocs = r.measure("wiss.sort", func(sw *stopwatch) (int64, int64) {
		var pages int64
		for _, ratio := range ratios {
			src := wiss.NewFile("replay.sort", d, r.model)
			dst := wiss.NewFile("replay.sorted", d, r.model)
			src.AppendBatch(&acct, frag)
			src.Flush(&acct)
			mem := int64(ratio * float64(len(frag)) * tuple.Bytes)
			// Sort fails only on a non-empty destination; dst is fresh.
			sw.begin()
			_, _ = wiss.Sort(&acct, src, dst, tuple.Unique1, mem)
			sw.end()
			pages += int64(src.Pages())
			src.Recycle()
			dst.Recycle()
		}
		return pages, pages
	})

	// trace and profile exporters on the workload's latest verified report.
	rep := r.last
	if rep == nil {
		return c
	}
	prof, err := profile.FromReport(rep, r.model)
	if err != nil {
		r.attempted++
		r.fail(err)
		return c
	}
	spans := int64(len(rep.Trace.Spans()))
	samples := int64(len(rep.Trace.Metrics().Samples()))
	// The writers go to io.Discard and the profile was just built from the
	// same report, so none of the timed calls below can fail.
	timed := func(layer string, call func() error, units int64) (float64, float64) {
		return r.measure(layer, func(sw *stopwatch) (int64, int64) {
			sw.begin()
			_ = call()
			sw.end()
			return units, units
		})
	}
	discard := func(write func(io.Writer) error) func() error {
		return func() error { return write(io.Discard) }
	}
	c.chromeNs, c.chromeAllocs = timed("trace.chrome", discard(rep.Trace.WriteChrome), spans)
	c.spansTSVNs, _ = timed("trace.spans_tsv", discard(rep.Trace.WriteSpansTSV), spans)
	c.metricsTSVNs, _ = timed("trace.metrics_tsv", discard(rep.Trace.WriteMetricsTSV), samples)
	c.fromReportNs, _ = timed("profile.from_report", func() error {
		_, err := profile.FromReport(rep, r.model)
		return err
	}, spans)
	c.writeTextNs, _ = timed("profile.write_text", discard(prof.WriteText), spans)
	return c
}

// fragment is one disk site's share of the outer relation, as loading
// declusters it, with each tuple's join-attribute hash.
type fragment struct {
	site   int
	tuples []tuple.Tuple
	hashes []uint64
}

func fragments(in replayInput) []fragment {
	frags := make([]fragment, len(in.diskSites))
	for i, s := range in.diskSites {
		frags[i].site = s
	}
	for i := range in.outer {
		t := &in.outer[i]
		f := &frags[split.Hash(t.Int(in.partAttr), 0)%uint64(len(in.diskSites))]
		f.tuples = append(f.tuples, *t)
		f.hashes = append(f.hashes, split.Hash(t.Int(tuple.Unique1), 0))
	}
	return frags
}
