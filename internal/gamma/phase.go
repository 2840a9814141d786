package gamma

import (
	"fmt"
	"slices"
	"sync"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/netsim"
	"gammajoin/internal/trace"
)

// PhaseStat records the simulated timing of one operator phase.
type PhaseStat struct {
	Name string
	// Work is the slowest site's overlapped resource time.
	Work cost.SimNs
	// Sched is the scheduling overhead: scheduler latency, control
	// messages, and split-table delivery packets.
	Sched cost.SimNs
	// PerSite holds each site's summed CPU, disk and network time, indexed
	// by site: the sum over the phase's worker spans at that site, zero
	// where no process ran. Fault events stay on the spans.
	PerSite []cost.Acct
	// Net snapshots network activity during the phase.
	Net netsim.Counters
}

// Elapsed is the phase's contribution to query response time.
func (p PhaseStat) Elapsed() cost.SimNs { return p.Work + p.Sched }

// SiteTotals folds the phases' PerSite ledgers into one account per site,
// indexed by site: each site's CPU, disk and network time summed over the
// phases, in phase order.
func SiteTotals(phases []PhaseStat) []cost.Acct {
	var totals []cost.Acct
	for _, ph := range phases {
		if n := len(ph.PerSite) - len(totals); n > 0 {
			totals = append(totals, make([]cost.Acct, n)...)
		}
		for site, a := range ph.PerSite {
			totals[site].Merge(a)
		}
	}
	return totals
}

// Query accumulates the phases of one query execution. Response time is the
// sum of phase elapsed times: Gamma's operator phases for these join
// algorithms are barrier-synchronized (relations are partitioned serially,
// buckets are joined consecutively).
type Query struct {
	C      *Cluster
	Phases []PhaseStat

	// Trace records every phase onto the simulated-time timeline:
	// NewPhase/End drive its virtual clock in lockstep with the
	// response-time accumulation, every worker's account lives on its span,
	// and End publishes the phase's network and disk activity as per-phase
	// gauges.
	Trace *trace.Recorder

	// workers is the span list of the query's phases: NewPhase takes it,
	// and End clears it and hands it back, so the query's phases register
	// their workers into one array rather than each growing its own.
	workers []*trace.Span
}

// NewQuery starts a query on the cluster, recording onto tr.
func (c *Cluster) NewQuery(tr *trace.Recorder) *Query { return &Query{C: c, Trace: tr} }

// Response returns the accumulated response time.
func (q *Query) Response() cost.SimNs {
	var total cost.SimNs
	for _, p := range q.Phases {
		total += p.Elapsed()
	}
	return total
}

// AddDetection charges the failure detector's declaration latency as a
// scheduler-only pseudo-phase: no site does work, but the query clock (and
// the trace timeline) advances by the heartbeat-grid delay between the
// crash and the scheduler declaring the site dead. Both recovery rungs —
// failover and full restart — pay this before reacting.
func (q *Query) AddDetection(name string, delay cost.SimNs) {
	q.Phases = append(q.Phases, PhaseStat{Name: name, Sched: delay, PerSite: make([]cost.Acct, len(q.C.Sites))})
	q.Trace.BeginPhase(name)
	q.Trace.EndPhase(0, delay)
}

// Phase is one barrier-synchronized operator phase. Each operator process
// registers once with Worker, which opens its trace span; End closes every
// span, takes the slowest site, adds scheduling overhead, and appends a
// PhaseStat to the query.
type Phase struct {
	q    *Query
	name string

	mu      sync.Mutex
	workers []*trace.Span // in registration order

	netStart  netsim.Counters
	diskStart disk.Counters
}

// NewPhase begins a phase. The phase registers its workers in the query's
// span list until End hands the list back.
func (q *Query) NewPhase(name string) *Phase {
	q.Trace.BeginPhase(name)
	p := &Phase{
		q:         q,
		name:      name,
		workers:   q.workers[:0],
		netStart:  q.C.Net.Counters(),
		diskStart: q.C.DiskCounters(),
	}
	q.workers = nil
	return p
}

// Worker registers one operator process running at site: it opens the
// process's trace span and returns the account the span carries. The
// process must charge only that account; End reads it at the barrier.
// bucket is the bucket/partition the operator works on, or -1.
func (p *Phase) Worker(site int, op, role string, bucket int) *cost.Acct {
	sp := p.q.Trace.Start(site, op, role, bucket)
	p.mu.Lock()
	p.workers = append(p.workers, sp)
	p.mu.Unlock()
	return sp.Acct()
}

// EndOpts describes the scheduling work of a phase.
type EndOpts struct {
	// SplitEntries is the size of the split table shipped to each
	// producing process (0 if none). Tables larger than one network
	// packet are sent in pieces — the paper's low-memory upturn.
	SplitEntries int
	// Producers is the number of processes that receive the split table.
	Producers int
}

// End closes the phase: all worker processes must have finished. It closes
// their spans, sums them per site, and returns the phase's elapsed
// simulated time.
func (p *Phase) End(opts EndOpts) cost.SimNs {
	m := p.q.C.Model
	p.mu.Lock()
	defer p.mu.Unlock()

	// A process may charge nothing, so a zero PerSite entry does not say
	// whether a site took part: sites counts each site at its first worker.
	perSite := make([]cost.Acct, len(p.q.C.Sites))
	sites := 0
	for i, sp := range p.workers {
		sp.Close()
		perSite[sp.Site].Merge(*sp.Acct())
		if !slices.ContainsFunc(p.workers[:i], func(w *trace.Span) bool { return w.Site == sp.Site }) {
			sites++
		}
	}
	clear(p.workers)
	p.q.workers, p.workers = p.workers[:0], nil
	var work cost.SimNs
	for _, a := range perSite {
		work = max(work, a.Elapsed())
	}

	// Scheduling: fixed scheduler latency, three control messages per
	// participating site (initiate, ready, done), and split-table delivery
	// packets to each producer, all serialized at the scheduler.
	sched := m.PhaseStartup + cost.ScaleNs(sites*3, m.ControlMsg)
	if opts.SplitEntries > 0 && opts.Producers > 0 {
		pkts := m.SplitTablePackets(opts.SplitEntries)
		sched += cost.ScaleNs(pkts*opts.Producers, m.PacketProto+m.PacketWire)
	}

	stat := PhaseStat{
		Name:    p.name,
		Work:    work,
		Sched:   sched,
		PerSite: perSite,
		Net:     p.q.C.Net.Counters().Sub(p.netStart),
	}
	p.q.Phases = append(p.q.Phases, stat)

	// Publish the phase's cluster-wide activity as per-phase gauges, then
	// advance the virtual clock by the phase's elapsed time. The gauges
	// read the same counters the PhaseStat snapshots — tracing observes the
	// cost model, it never feeds back into it.
	tr := p.q.Trace
	mm := tr.Metrics()
	mm.Gauge("net.tuples.local").Set(stat.Net.TuplesLocal.Count())
	mm.Gauge("net.tuples.remote").Set(stat.Net.TuplesRemote.Count())
	mm.Gauge("net.packets.local").Set(stat.Net.PacketsLocal)
	mm.Gauge("net.packets.remote").Set(stat.Net.PacketsRemote)
	mm.Gauge("net.bytes.wire").Set(stat.Net.BytesOnWire.Count())
	mm.Gauge("net.packets.retransmitted").Set(stat.Net.PacketsRetransmitted)
	mm.Gauge("net.packets.duplicated").Set(stat.Net.PacketsDuplicated)
	dd := p.q.C.DiskCounters().Sub(p.diskStart)
	mm.Gauge("disk.pages.read").Set(dd.PagesRead.Count())
	mm.Gauge("disk.pages.written").Set(dd.PagesWritten.Count())
	mm.Gauge("disk.read.retries").Set(dd.ReadRetries)
	mm.Gauge("disk.file.switches").Set(dd.FileSwitches)
	mm.Gauge("disk.mirror.reads").Set(dd.MirrorReads.Count())
	mm.Gauge("disk.mirror.writes").Set(dd.MirrorWrites.Count())
	tr.EndPhase(work, sched)
	return stat.Elapsed()
}

// Exchange is the per-phase communication fabric: one lane per source
// site, written without a lock by exactly one sender — the one producing
// for that logical source — which delivers each destination's packets in
// sequence order. One stage of a phase delivers into it (via
// netsim.Sender, which batches consecutive same-destination packets into
// runs); the next stage starts after that stage's barrier and takes each
// site's packets by reading the lanes in source order and, within a lane,
// the runs addressed to it in delivery order. That is already (Src, Seq)
// order, so consumers process packets in an order that does not depend on
// goroutine scheduling and nobody sorts. Delivery never blocks a producer.
// Run granularity remains a wall-clock transport optimization only —
// receive-side accounting stays per packet (netsim.Network.Recv).
type Exchange struct {
	n       int
	lanes   []lane            // by source site
	last    []int64           // Seq of the last packet delivered, by src*n+dst
	taken   [][]*netsim.Batch // per destination, the packets Take hands out
	deliver func(dst int, run []*netsim.Batch)
}

// lane holds one source's packets in delivery order, and where each
// delivered run starts and ends and which destination it is for. A
// source's lanes share their storage, so a fresh exchange grows two arrays
// per source rather than one per site pair.
type lane struct {
	pkts []*netsim.Batch
	runs []laneRun
}

// laneRun is one delivered run: pkts[lo:hi] of its lane, for dst.
type laneRun struct {
	dst, lo, hi int
}

// NewExchange returns an exchange with a lane for every source site,
// reusing a pooled one (and its lanes' backing arrays) when available.
// Callers hand exchanges back with PutExchange once every consumer has
// finished.
func (c *Cluster) NewExchange() *Exchange {
	if e, ok := c.exPool.Get(); ok {
		return e
	}
	n := len(c.Sites)
	e := &Exchange{n: n, lanes: make([]lane, n), last: make([]int64, n*n), taken: make([][]*netsim.Batch, n)}
	e.deliver = e.Deliver
	// Every lane starts with room for laneRuns runs, all in one array.
	runs := make([]laneRun, n*laneRuns)
	for i := range e.lanes {
		e.lanes[i].runs = runs[i*laneRuns : i*laneRuns : (i+1)*laneRuns]
	}
	return e
}

// laneRuns is how many runs a fresh exchange's lane holds before its run
// list grows: a phase's producer delivers about 40 runs of 32 packets at
// the paper's 100k-tuple scale.
const laneRuns = 64

// PutExchange recycles an exchange for a later phase. Only call it when no
// consumer can still be reading the slices Take handed out — in practice,
// after the consuming workers' barrier. The packet pointers themselves are
// recycled separately (netsim.PutBatches) by the consumers.
func (c *Cluster) PutExchange(e *Exchange) {
	for i := range e.lanes {
		l := &e.lanes[i]
		l.pkts, l.runs = l.pkts[:0], l.runs[:0]
	}
	clear(e.last)
	for i := range e.taken {
		e.taken[i] = e.taken[i][:0]
	}
	c.exPool.Put(e)
}

// Deliver appends a run of packets from one sender to its source's lane
// (run slices are recycled here). Only the one sender of a logical source
// may deliver into its lane, and its packets for each destination must
// arrive in sequence order: a run whose first Seq is not above the last
// one delivered from its source to its destination — two senders sharing
// a source, or a sender delivering out of order — panics, naming the pair.
func (e *Exchange) Deliver(dst int, run []*netsim.Batch) {
	if len(run) > 0 {
		src := run[0].Src
		last := &e.last[src*e.n+dst]
		if first := run[0].Seq; first <= *last {
			panicLane(src, dst, first, *last)
		}
		*last = run[len(run)-1].Seq
		l := &e.lanes[src]
		lo := len(l.pkts)
		l.pkts = append(l.pkts, run...)
		l.runs = append(l.runs, laneRun{dst: dst, lo: lo, hi: len(l.pkts)})
	}
	netsim.PutRun(run)
}

// DeliverFunc returns Deliver bound to the exchange, for a netsim.Sender's
// delivery callback. The exchange binds it once, when it is made, so the
// phase's senders share one function value instead of each allocating an
// e.Deliver method value.
func (e *Exchange) DeliverFunc() func(dst int, run []*netsim.Batch) { return e.deliver }

// panicLane reports a run delivered out of sequence order from src to dst.
func panicLane(src, dst int, first, last int64) {
	panic(fmt.Sprintf("gamma: exchange lane (src %d, dst %d) got a run starting at seq %d after seq %d; "+
		"a lane takes one sender's packets in sequence order", src, dst, first, last))
}

// Take returns every packet delivered to the site, ordered by (source,
// sequence): the lanes in source order, and within a lane the runs for
// the site in delivery order. Call it only after the barrier of the stage
// that delivered into the exchange, once per site. The returned slice is
// owned by the exchange and valid until PutExchange.
func (e *Exchange) Take(site int) []*netsim.Batch {
	n := 0
	for i := range e.lanes {
		for _, r := range e.lanes[i].runs {
			if r.dst == site {
				n += r.hi - r.lo
			}
		}
	}
	out := slices.Grow(e.taken[site][:0], n)
	for i := range e.lanes {
		l := &e.lanes[i]
		for _, r := range l.runs {
			if r.dst == site {
				out = append(out, l.pkts[r.lo:r.hi]...)
			}
		}
	}
	e.taken[site] = out
	return out
}
