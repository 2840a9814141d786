package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/pred"
	"gammajoin/internal/trace"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// Stream tags. Tags identify the logical stream a packet belongs to so one
// consumer goroutine per site can serve several operator roles in a phase.
const (
	tagProbe     = -1      // tuples for hash-table build or probe
	tagStore     = -2      // composite result tuples for the store operator
	tagROverBase = 1 << 20 // + join site: inner-relation overflow file
	tagSOverBase = 1 << 21 // + join site: outer-relation overflow file
	tagDynRBase  = 1 << 22 // + partition: dynamic-Hybrid spilled inner partition
	tagDynSBase  = 1 << 23 // + partition: dynamic-Hybrid spilled outer partition
	// Bucket tags are the bucket number itself (0..buckets-1).
)

// runCtx carries the state of one join execution.
type runCtx struct {
	c    *gamma.Cluster
	q    *gamma.Query
	spec *Spec
	m    *cost.Model

	joinSites  []int
	diskSites  []int
	memTotal   int64
	memPerSite int64

	netStart  netsim.Counters
	diskStart disk.Counters

	// tr records the execution onto the simulated timeline; it spans
	// every restart attempt, while q holds only this attempt's phases.
	tr *trace.Recorder

	// Routing counters live in the trace metrics registry so they are
	// queryable per phase; the handles below are registered once and the
	// *Start values snapshot the registry at runCtx creation, so a restart
	// attempt reports only its own activity.
	mFormLocal, mFormRemote         *trace.Counter // forming-phase tuple routing
	mROver, mSOver                  *trace.Counter // overflow-file demotions
	mChainMax                       *trace.Gauge   // per-phase max hash-chain length
	formLocalStart, formRemoteStart int64
	rOverStart, sOverStart          int64

	// stats, updated from worker goroutines
	resultCount    atomic.Int64
	resultSum      atomic.Uint64 // wrapping sum of result checksums
	filterDropped  atomic.Int64
	overflowClears atomic.Int64

	// dynamic-Hybrid adaptation stats, updated from build/resurrect workers
	spillCount    atomic.Int64 // whole partitions demoted to disk
	resurrections atomic.Int64 // spilled partitions brought back before probing
	revokedBytes  atomic.Int64 // budget capacity taken away mid-build

	overflowLevels int
	buckets        int
	sortPassesR    int
	sortPassesS    int
	filterBits     int

	// slots holds each logical site's results, indexed by site. During a
	// phase a slot field is written only by the one process at that site
	// that produces it; the coordinator reads the slots in site order after
	// the barrier, so no result depends on goroutine scheduling.
	slots []siteSlot

	errMu    sync.Mutex
	firstErr error

	fileSeq int

	// tempFiles lists the temp wiss files this attempt created (by their
	// registered name), so every Run exit path — success, restart, cancel
	// — can drop them from the cluster's live-file ledger. Appended only
	// from coordinator code (newTempFile runs between phases), like
	// fileSeq. tempHandles holds the same files by handle so dropTempFiles
	// can recycle their pages: nothing a Run returns aliases temp-file
	// memory (results and collected rows are copied out), and redo units
	// only re-read files from the same attempt, which is over by then.
	tempFiles   []string
	tempHandles []*wiss.File

	// Recovery-ladder state for this attempt (docs/FAULTS.md). failover
	// moves a crashed site's roles to its ring neighbor instead of
	// abandoning the attempt; runUnit then re-runs only the crashed unit.
	failedOver     int        // crashes absorbed by mirrored failover
	deadSites      []int      // sites lost to absorbed crashes, in order
	phasesRedone   int        // completed phases re-run after a failover
	wastedRedo     cost.SimNs // simulated time the redone phases cost
	detectionDelay cost.SimNs // heartbeat latency before declaring deaths
	redoMark       bool       // suffix phase names with " (redo)" until the unit completes
}

func newRunCtx(c *gamma.Cluster, spec *Spec, tr *trace.Recorder) (*runCtx, error) {
	if spec.R == nil || spec.S == nil {
		return nil, fmt.Errorf("core: spec needs both relations")
	}
	if spec.RAttr < 0 || spec.RAttr >= tuple.NumInts || spec.SAttr < 0 || spec.SAttr >= tuple.NumInts {
		return nil, fmt.Errorf("core: invalid join attributes %d/%d", spec.RAttr, spec.SAttr)
	}
	mem, err := spec.memBytes()
	if err != nil {
		return nil, err
	}
	if spec.ForceBuckets < 0 {
		return nil, fmt.Errorf("core: negative bucket count %d", spec.ForceBuckets)
	}
	js := spec.JoinSites
	if len(js) == 0 {
		js = c.JoinSites()
	}
	if spec.Alg == SortMerge {
		// Our sort-merge cannot use diskless processors (Section 3.1):
		// joins always run on the sites holding the sorted fragments. An
		// explicit JoinSites list (the recovery path excluding a dead
		// site) restricts the disk sites; a list naming only diskless
		// sites falls back to all disk sites, as before.
		js = intersectSites(c.DiskSites(), spec.JoinSites)
	}
	for _, s := range js {
		if s < 0 || s >= len(c.Sites) {
			return nil, fmt.Errorf("core: join site %d out of range", s)
		}
	}
	// A repeated site would build, probe and write its overflow file once
	// per listing — wrong answers, not just wasted work.
	for i, s := range spec.JoinSites {
		if slices.Contains(spec.JoinSites[:i], s) {
			return nil, fmt.Errorf("core: join site %d listed twice in %v", s, spec.JoinSites)
		}
	}
	if len(c.DiskSites()) == 0 {
		return nil, fmt.Errorf("core: cluster has no disk sites")
	}
	rc := newCtx(c, spec, js, tr)
	rc.memTotal = mem
	rc.memPerSite = mem / int64(len(js))
	if rc.memPerSite < int64(tuple.Bytes) {
		rc.memPerSite = tuple.Bytes
	}
	if spec.BitFilter {
		rc.filterBits = filterBits(c.Model, len(js))
	}
	return rc, nil
}

// newCtx builds the state every operator's runCtx shares. The query drives
// its phase clock through tr, and the routing counters register their
// metric handles; snapshots of the (cumulative, restart-spanning) counters
// let report() expose only this attempt's activity.
func newCtx(c *gamma.Cluster, spec *Spec, joinSites []int, tr *trace.Recorder) *runCtx {
	rc := &runCtx{
		c:         c,
		q:         c.NewQuery(tr),
		spec:      spec,
		m:         c.Model,
		joinSites: joinSites,
		diskSites: c.DiskSites(),
		netStart:  c.Net.Counters(),
		diskStart: c.DiskCounters(),
		tr:        tr,
		slots:     make([]siteSlot, len(c.Sites)),
	}
	mm := tr.Metrics()
	rc.mFormLocal = mm.Counter("form.tuples.local")
	rc.mFormRemote = mm.Counter("form.tuples.remote")
	rc.mROver = mm.Counter("overflow.r.tuples")
	rc.mSOver = mm.Counter("overflow.s.tuples")
	rc.mChainMax = mm.Gauge("hash.chain.max")
	rc.formLocalStart = rc.mFormLocal.Value()
	rc.formRemoteStart = rc.mFormRemote.Value()
	rc.rOverStart = rc.mROver.Value()
	rc.sOverStart = rc.mSOver.Value()
	return rc
}

// tableCap is the per-site hash-table capacity: the per-site share of the
// aggregate join memory rounded up to a whole tuple slot. The one-slot
// rounding absorbs the remainder when the dense benchmark key domain does
// not divide evenly by the split-table size, so integral-bucket runs on
// uniform data stay exactly within memory ("neither Grace or Hybrid joins
// ever experienced hash table overflow") while skewed inner relations
// overflow as in Section 4.4.
func (rc *runCtx) tableCap() int64 {
	return rc.memPerSite + tuple.Bytes
}

func (rc *runCtx) report() *Report {
	// Forming counts only tuples actually written into disk buckets or
	// redistribution temp files (the paper's Table 2 "local writes"
	// metric) — not the overlapped in-memory build/probe traffic and not
	// result storing. The counters live in the trace metrics registry
	// (per-phase queryable); the snapshot diff keeps a restarted query's
	// report scoped to the successful attempt.
	forming := netsim.Counters{
		TuplesLocal:  cost.Tuples(rc.mFormLocal.Value() - rc.formLocalStart),
		TuplesRemote: cost.Tuples(rc.mFormRemote.Value() - rc.formRemoteStart),
	}
	resp := rc.q.Response()
	r := &Report{
		Alg:               rc.spec.Alg,
		Response:          resp.Dur(),
		Phases:            rc.q.Phases,
		ResultCount:       rc.resultCount.Load(),
		ResultSum:         rc.resultSum.Load(),
		Buckets:           rc.buckets,
		OverflowLevels:    rc.overflowLevels,
		OverflowClears:    rc.overflowClears.Load(),
		ROverflowed:       rc.mROver.Value() - rc.rOverStart,
		SOverflowed:       rc.mSOver.Value() - rc.sOverStart,
		FilterBitsPerSite: rc.filterBits,
		FilterDropped:     rc.filterDropped.Load(),
		SpillCount:        rc.spillCount.Load(),
		Resurrections:     rc.resurrections.Load(),
		RevokedPages:      rc.bytesToPages(rc.revokedBytes.Load()),
		Net:               rc.c.Net.Counters().Sub(rc.netStart),
		Disk:              rc.c.DiskCounters().Sub(rc.diskStart),
		Forming:           forming,
		SortPassesR:       rc.sortPassesR,
		SortPassesS:       rc.sortPassesS,
		Trace:             rc.tr,
	}
	// Chain stats are folded in site order: float addition is not
	// associative, so summing in goroutine-completion order would make
	// AvgChain run-dependent.
	var chainSum float64
	var chainSites int
	for i := range rc.slots {
		sl := &rc.slots[i]
		r.Results = append(r.Results, sl.results...)
		chainSum += sl.chain.sum
		chainSites += sl.chain.n
		r.MaxChain = max(r.MaxChain, sl.chain.max)
	}
	if chainSites > 0 {
		r.AvgChain = chainSum / float64(chainSites)
	}

	// Utilization: per-site CPU time over the response time, averaged
	// within each processor class; bottleneck: the busiest site's summed
	// resource time (CPU + disk + net). Both sum this attempt's phase
	// ledger per site. Each PerSite entry is the sum of that phase's worker
	// spans at the site, so the numbers are the trace's own (the trace *is*
	// the audit trail for the paper's Section 4.5 utilization claims).
	totals := make(map[int]cost.Acct)
	for _, ph := range rc.q.Phases {
		for site, a := range ph.PerSite { //gammavet:ordered integer sums are order-independent
			t := totals[site]
			t.Merge(a)
			totals[site] = t
		}
	}
	if resp > 0 {
		var dSum, dn, lSum, ln float64
		for _, site := range rc.c.DiskSites() {
			dSum += float64(totals[site].CPU.Nanoseconds())
			dn++
		}
		for _, site := range rc.c.DisklessSites() {
			lSum += float64(totals[site].CPU.Nanoseconds())
			ln++
		}
		respNs := float64(resp.Nanoseconds())
		if dn > 0 {
			r.UtilDisk = dSum / dn / respNs
		}
		if ln > 0 {
			r.UtilDiskless = lSum / ln / respNs
		}
	}
	var maxBusy cost.SimNs
	for _, t := range totals { //gammavet:ordered max fold is order-independent
		maxBusy = max(maxBusy, t.CPU+t.Disk+t.Net)
	}
	r.BottleneckBusy = maxBusy.Dur()
	return r
}

// bytesToPages rounds a byte count up to whole disk pages.
func (rc *runCtx) bytesToPages(n int64) cost.Pages {
	if n <= 0 {
		return 0
	}
	pageB := int64(rc.m.P.PageBytes)
	return cost.Pages((n + pageB - 1) / pageB)
}

// siteSlot is one logical site's share of an operator's results.
type siteSlot struct {
	results []tuple.Joined // collected join results (Spec.CollectResults), in emit order
	chain   chainStat      // hash-chain statistics of the site's probed tables
	stored  int64          // result tuples the site's store operator wrote

	rows   []tuple.Tuple      // collected selection rows, in the site's order
	n      int64              // rows a selection or update qualified
	groups map[int32]*partial // aggregate groups merged at the site
}

// gatherRows folds the selection and update slots in site order.
func (rc *runCtx) gatherRows() (total int64, rows []tuple.Tuple) {
	for i := range rc.slots {
		total += rc.slots[i].n
		rows = append(rows, rc.slots[i].rows...)
	}
	return total, rows
}

// chainStat accumulates hash-chain statistics for one join site so they can
// be merged in a fixed order at report time.
type chainStat struct {
	sum float64
	n   int
	max int
}

// noteChains records a probed table's chain statistics in site's slot; only
// the site's probe process calls it.
func (rc *runCtx) noteChains(site int, ht *gamma.HashTable) {
	avg, maxLen := ht.ChainStats()
	rc.mChainMax.Max(int64(maxLen))
	st := &rc.slots[site].chain
	if avg > 0 {
		st.sum += avg
		st.n++
	}
	st.max = max(st.max, maxLen)
}

// fail records the first error raised by a phase worker; runPhase returns
// it at the phase barrier so callers see a clean, ordered failure instead
// of a panic from inside a goroutine.
func (rc *runCtx) fail(err error) {
	if err == nil {
		return
	}
	rc.errMu.Lock()
	if rc.firstErr == nil {
		rc.firstErr = err
	}
	rc.errMu.Unlock()
}

func (rc *runCtx) takeErr() error {
	rc.errMu.Lock()
	defer rc.errMu.Unlock()
	return rc.firstErr
}

// applyMemPressure consults the fault registry for a mid-build change of
// the join-memory budget (the per-phase shrink/grow factor applies to
// every join site, modelling a change in the aggregate allocation) and
// resizes site j's hash table accordingly. Tuples evicted by a shrink are
// demoted to the site's overflow file exactly like capacity evictions, so
// the existing overflow-resolution levels absorb them; the lowered cutoff
// is published to the outer-relation split table at the phase barrier as
// usual. Call after the build consumer has drained its batches and before
// the phase ends.
func (rc *runCtx) applyMemPressure(a *cost.Acct, snd *netsim.Sender, j int, tbl *gamma.HashTable) {
	f := rc.c.Faults.MemFactor(len(rc.q.Phases))
	if f == 1 {
		return
	}
	evs := tbl.Resize(a, int64(float64(rc.tableCap())*f))
	a.Note("mem.pressure", int64(len(evs)))
	for i := range evs {
		rc.mROver.Add(1)
		snd.Send(rc.c.OverflowDiskSite(j), tagROverBase+j, &evs[i], 0)
	}
}

// scanPred charges and evaluates an optional scan predicate; a nil
// predicate always passes for free.
func (rc *runCtx) scanPred(a *cost.Acct, p pred.Pred, t *tuple.Tuple) bool {
	if p == nil {
		return true
	}
	a.AddCPU(cost.ScaleNs(p.Nodes(), rc.m.PredEval))
	return p.Eval(t)
}

// fileAt pairs a file with the site whose process scans or writes it.
type fileAt struct {
	site int
	f    *wiss.File
}

// newTempFile creates a temporary file on a disk site's disk. Workload
// queries (QueryID != 0) prefix the name so two concurrent queries of the
// same shape get distinct file-id hashes.
func (rc *runCtx) newTempFile(name string, site int) (*wiss.File, error) {
	d, err := rc.c.Disk(site)
	if err != nil {
		return nil, fmt.Errorf("core: temp file %q: %w", name, err)
	}
	rc.fileSeq++
	if rc.spec.QueryID != 0 {
		name = fmt.Sprintf("q%d.%s", rc.spec.QueryID, name)
	}
	full := fmt.Sprintf("%s#%d", name, rc.fileSeq)
	rc.c.RegisterTempFile(full)
	rc.tempFiles = append(rc.tempFiles, full)
	f := wiss.NewFile(full, d, rc.m)
	rc.tempHandles = append(rc.tempHandles, f)
	return f, nil
}

// dropTempFiles deletes every temp file this attempt created from the
// cluster's live-file ledger. Run calls it at the end of every attempt —
// success, restart, or cancellation — so Cluster.LiveTempFiles is empty
// whenever no query is mid-flight.
func (rc *runCtx) dropTempFiles() {
	for _, name := range rc.tempFiles {
		rc.c.DropTempFile(name)
	}
	rc.tempFiles = nil
	for _, f := range rc.tempHandles {
		f.Recycle()
	}
	rc.tempHandles = nil
}

// canceled reports whether this execution should stop: the external cancel
// token fired, or the query's simulated response has reached its deadline.
// The deadline compares against the trace recorder's virtual clock, which
// only advances at phase barriers — so deadline cancellation is a pure
// function of the schedule and fires at the same barrier in every run,
// while an external Cancel() is observed between work items wherever the
// goroutine schedule happens to be (canceled runs return no report, so
// nothing byte-compared sees that difference).
func (rc *runCtx) canceled() bool {
	if rc.spec.Cancel.Canceled() {
		return true
	}
	d := rc.spec.DeadlineNs
	return d > 0 && rc.tr.Now() >= d
}

// cancelErr builds the cancellation error, preferring the deadline cause
// when both apply. Both wrap ErrQueryCanceled.
func (rc *runCtx) cancelErr() error {
	if d := rc.spec.DeadlineNs; d > 0 && rc.tr.Now() >= d {
		return fmt.Errorf("core: query %d at %v: %w", rc.spec.QueryID, rc.tr.Now().Dur(), ErrDeadlineExceeded)
	}
	return fmt.Errorf("core: query %d: %w", rc.spec.QueryID, ErrQueryCanceled)
}

// producerFn produces tuples into the phase's first exchange via snd.
type producerFn func(a *cost.Acct, snd *netsim.Sender)

// stageFn consumes the (deterministically ordered) batches addressed to its
// site. Consumers drain the phase's first exchange and may produce into the
// second via snd; writers drain the second exchange and get a nil snd.
type stageFn func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch)

// opLabels names the operator each launch role performs in a phase, for the
// trace (e.g. produce="scan", consume="build"). Empty labels fall back to
// the role name.
type opLabels struct {
	produce, consume, write, solo string
}

// phaseSpec wires one barrier-synchronized operator phase; newPhase starts
// one.
type phaseSpec struct {
	name    string
	end     gamma.EndOpts
	ops     opLabels
	bucket  int                          // 0-based bucket/partition this phase joins, or -1
	solo    map[int][]func(a *cost.Acct) // site-local work, no communication
	produce map[int][]producerFn
	consume map[int]stageFn
	write   map[int]stageFn
}

// op resolves the trace operator label for a launch role.
func (ps *phaseSpec) op(role string) string {
	var label string
	switch role {
	case "produce":
		label = ps.ops.produce
	case "consume":
		label = ps.ops.consume
	case "write":
		label = ps.ops.write
	case "solo":
		label = ps.ops.solo
	}
	if label == "" {
		return role
	}
	return label
}

// drainSorted charges receive costs for every batch taken from the phase
// exchange and returns them ordered by (source site, sequence) so processing
// order — and therefore overflow behaviour — is deterministic regardless of
// goroutine scheduling. The exchange accumulates delivery runs (bounded
// slices of packets from one sender to one destination) in arrival order;
// runs are a transport artifact only — each packet is received and charged
// individually, and the (Src, Seq) sort erases run boundaries, so batched
// and serial engines process identical packet sequences.
func drainSorted(net *netsim.Network, a *cost.Acct, batches []*netsim.Batch) []*netsim.Batch {
	for _, b := range batches {
		net.Recv(a, b)
	}
	// (Src, Seq) is unique within a mailbox, so the unstable sort is
	// deterministic.
	slices.SortFunc(batches, func(x, y *netsim.Batch) int {
		if c := cmp.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return cmp.Compare(x.Seq, y.Seq)
	})
	return batches
}

// sortedKeys returns m's keys in ascending site order. Phase workers are
// registered and launched through it so registration order never depends
// on map iteration order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// newPhaseSender builds the sender for a logical site's worker: packets
// keep the logical source (consumer-side replay order and the fault
// schedule's packet coordinates stay independent of failover), while the
// short-circuit test follows the physical host map once any site is dead.
func (rc *runCtx) newPhaseSender(a *cost.Acct, site int, deliver func(int, []*netsim.Batch)) *netsim.Sender {
	snd := rc.c.Net.NewSender(a, site, deliver)
	if rc.c.DeadCount() > 0 {
		snd.SetColocated(rc.c.Colocated(site))
	}
	return snd
}

// launch registers one operator process — the role ps assigns to a
// logical site — and runs body on its executing site's pool worker. The
// registration happens here, on the coordinator, before submission, so the
// phase's span order never depends on goroutine scheduling. Both the span
// and the phase's per-site ledger are keyed by the physical executor.
func (rc *runCtx) launch(p *gamma.Phase, wg *sync.WaitGroup, ps *phaseSpec, role string, site int, body func(a *cost.Acct)) {
	exec := rc.c.AliveHost(site)
	a := p.Worker(exec, ps.op(role), role, ps.bucket)
	wg.Add(1)
	rc.c.Go(exec, func() {
		defer wg.Done()
		body(a)
	})
}

// runPhase executes one phase: solo workers and producers run first-stage,
// consumers drain the first exchange (and may emit to the second), writers
// drain the second exchange.
//
// Roles are keyed by *logical* site; each launch resolves the physical
// executor through the cluster's host map, so after a failover the dead
// site's roles run (and are charged, and traced) on its ring neighbor while
// the dataflow — exchange channels, split tables, batch sources — is
// untouched.
func (rc *runCtx) runPhase(ps phaseSpec) error {
	// Injected site crashes surface at the phase boundary — Gamma's
	// scheduler notices a dead operator process when it tries to start the
	// next phase's operators there. Aborting before any goroutine is
	// launched keeps the failure clean: no partial phase charges, no
	// leaked workers, and the query's phase list still matches what
	// actually ran. The recovery ladder (runUnit/Run) takes it from there.
	if site, ok := rc.c.Faults.CrashSiteAt(len(rc.q.Phases), rc.joinSites); ok {
		rc.tr.Instant(site, "crash", ps.name)
		return &SiteFailure{Site: site, Phase: ps.name}
	}
	// Cancellation surfaces at the same deterministic boundary: the
	// scheduler declines to start the next phase's operators once the
	// deadline has passed (or an external cancel fired between phases).
	if rc.canceled() {
		err := rc.cancelErr()
		rc.tr.Instant(rc.joinSites[0], "cancel", fmt.Sprintf("entering %q: %v", ps.name, err))
		return err
	}
	// A query that overdrew its retry budget during the previous phase is
	// aborted here — the tally is an order-independent sum, so the barrier
	// is the first point where acting on it is deterministic.
	if rc.c.Faults.BudgetExhausted() {
		rc.tr.Instant(rc.joinSites[0], "cancel",
			fmt.Sprintf("retry budget exhausted (%d units) entering %q", rc.c.Faults.BudgetUsed(), ps.name))
		return fmt.Errorf("core: query %d entering %q: %w", rc.spec.QueryID, ps.name, fault.ErrRetryBudgetExhausted)
	}
	name := ps.name
	if rc.redoMark {
		name += " (redo)"
	}
	p := rc.q.NewPhase(name)
	ex1 := rc.c.NewExchange()
	ex2 := rc.c.NewExchange()

	// Workers are registered and submitted in sortedKeys order; the pool
	// only changes which OS-level goroutine hosts the work.
	var writers sync.WaitGroup
	for _, site := range sortedKeys(ps.write) {
		fn := ps.write[site]
		rc.launch(p, &writers, &ps, "write", site, func(a *cost.Acct) {
			// Drain unconditionally (upstream must never block on a full
			// exchange), then skip the work if a cancel fired mid-phase.
			batches := drainSorted(rc.c.Net, a, ex2.Take(site))
			defer netsim.PutBatches(batches)
			if rc.canceled() {
				rc.fail(rc.cancelErr())
				return
			}
			fn(a, nil, batches)
		})
	}

	var consumers sync.WaitGroup
	for _, site := range sortedKeys(ps.consume) {
		fn := ps.consume[site]
		rc.launch(p, &consumers, &ps, "consume", site, func(a *cost.Acct) {
			snd := rc.newPhaseSender(a, site, ex2.Deliver)
			batches := drainSorted(rc.c.Net, a, ex1.Take(site))
			defer netsim.PutBatches(batches)
			if rc.canceled() {
				rc.fail(rc.cancelErr())
			} else {
				fn(a, snd, batches)
			}
			snd.FlushAll()
			snd.Release()
		})
	}

	var producers sync.WaitGroup
	for _, site := range sortedKeys(ps.produce) {
		fns := ps.produce[site]
		rc.launch(p, &producers, &ps, "produce", site, func(a *cost.Acct) {
			snd := rc.newPhaseSender(a, site, ex1.Deliver)
			for _, fn := range fns {
				// Poll the cancel signal between work items: an external
				// cancel stops the scan flow here, mid-phase, and the
				// error surfaces at the barrier.
				if rc.canceled() {
					rc.fail(rc.cancelErr())
					break
				}
				fn(a, snd)
			}
			snd.FlushAll()
			snd.Release()
		})
	}
	var solos sync.WaitGroup
	for _, site := range sortedKeys(ps.solo) {
		fns := ps.solo[site]
		rc.launch(p, &solos, &ps, "solo", site, func(a *cost.Acct) {
			for _, fn := range fns {
				if rc.canceled() {
					rc.fail(rc.cancelErr())
					break
				}
				fn(a)
			}
		})
	}

	producers.Wait()
	solos.Wait()
	ex1.Close()
	consumers.Wait()
	// Past the consumers' barrier nothing reads ex1's mailboxes (the batch
	// objects themselves were recycled by the consumers), so the exchange
	// can serve the next phase.
	rc.c.PutExchange(ex1)
	ex2.Close()
	writers.Wait()
	rc.c.PutExchange(ex2)

	if ps.end.Producers == 0 {
		ps.end.Producers = len(ps.produce)
	}
	p.End(ps.end)
	return rc.takeErr()
}

// runUnit executes one redo-able unit of the join — a group of phases whose
// inputs are all durable (base fragments, bucket files, flushed temp files)
// so re-running it from the top is side-effect-free. Crashes fire at phase
// entry, before any goroutine runs, so an aborted unit never emitted result
// tuples or appended to its output files; fn must therefore be re-entrant:
// it recreates its hash tables, filters, and temp files on each call.
//
// On a *SiteFailure, runUnit climbs the recovery ladder: if a mirrored
// failover absorbs the crash, the unit re-runs with the dead site's roles
// adopted by its ring neighbor and only the unit's completed phases count
// as waste; otherwise the failure escalates to Run's full-restart rung.
func (rc *runCtx) runUnit(fn func() error) error {
	for {
		startPhases := len(rc.q.Phases)
		startResp := rc.q.Response()
		err := fn()
		var sf *SiteFailure
		if !errors.As(err, &sf) {
			if err == nil {
				rc.redoMark = false
			}
			return err
		}
		// Measure the waste before failover appends its detection phase.
		lost := rc.q.Response() - startResp
		redone := len(rc.q.Phases) - startPhases
		if !rc.failover(sf) {
			return err
		}
		rc.wastedRedo += lost
		rc.phasesRedone += redone
		rc.tr.Metrics().Counter("recovery.phases.redone").Add(int64(redone))
		rc.redoMark = true
	}
}

// failover is rung (b)+(c) of the recovery ladder: charge the failure
// detector's declaration latency, then — if chained mirrors can cover the
// dead site — move its roles to the ring neighbor and shrink the join-site
// list. Returns false when the crash must escalate to a full restart
// (mirrors disabled, the mirror chain already broken by an earlier death,
// or no join site left).
func (rc *runCtx) failover(sf *SiteFailure) bool {
	c := rc.c
	// Both rungs pay detection: the scheduler only learns of the death at
	// the next heartbeat-grid declaration instant. The delay lands on the
	// query clock (and the timeline) as a scheduler-only pseudo-phase.
	delay := c.Net.DetectionDelay(sf.Site, rc.tr.Now())
	rc.q.AddDetection(fmt.Sprintf("detect site %d failure", sf.Site), delay)
	rc.detectionDelay += delay
	rc.tr.Instant(sf.Site, "detect", fmt.Sprintf("declared dead after %v", delay.Dur()))
	if !c.Mirrored() || c.MirrorLost(sf.Site) {
		return false
	}
	alive := withoutSite(rc.joinSites, sf.Site)
	if len(alive) == 0 {
		return false
	}
	c.MarkDead(sf.Site)
	rc.joinSites = alive
	rc.failedOver++
	rc.deadSites = append(rc.deadSites, sf.Site)
	rc.tr.Metrics().Counter("recovery.failover").Add(1)
	rc.tr.Instant(sf.Site, "failover", fmt.Sprintf("roles adopted by site %d", c.AliveHost(sf.Site)))
	return true
}

// emitResult counts, optionally collects, and optionally routes one result
// tuple to the store operator at a disk site chosen round-robin. Collected
// results go to the emitting site's slot. Counts and checksums accumulate
// locally and land on the shared atomics once, in close() — both are
// commutative sums, so batching the atomic traffic cannot change the
// reported values. Every newEmitter caller must `defer em.close()`.
type resultEmitter struct {
	rc    *runCtx
	out   *siteSlot
	rr    int // round-robin cursor over disk sites
	snd   *netsim.Sender
	count int64
	sum   uint64
}

// newEmitter returns the emitter of the process at site.
func (rc *runCtx) newEmitter(site int, snd *netsim.Sender) *resultEmitter {
	return &resultEmitter{rc: rc, out: &rc.slots[site], rr: site, snd: snd}
}

func (e *resultEmitter) emit(a *cost.Acct, inner, outer *tuple.Tuple) {
	rc := e.rc
	a.AddCPU(rc.m.Result)
	e.count++
	// The wrapping-sum checksum is order-independent, so accumulating from
	// worker goroutines in scheduling order is still deterministic.
	e.sum += tuple.PairChecksum(inner, outer)
	if rc.spec.CollectResults {
		e.out.results = append(e.out.results, tuple.Joined{Inner: *inner, Outer: *outer})
	}
	if rc.spec.StoreResult {
		e.rr++
		dst := rc.diskSites[e.rr%len(rc.diskSites)]
		e.snd.SendJoinedPair(dst, tagStore, inner, outer)
	}
}

// close publishes the locally accumulated result count and checksum.
func (e *resultEmitter) close() {
	if e.count != 0 {
		e.rc.resultCount.Add(e.count)
		e.rc.resultSum.Add(e.sum)
		e.count, e.sum = 0, 0
	}
}
