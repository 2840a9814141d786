package core

import (
	"cmp"
	"fmt"
	"slices"

	"gammajoin/internal/bitfilter"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/pred"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// The operators every join plan is assembled from (Section 3): scan a
// relation or temp files through a split table, write tagged streams into
// temp files, and build and probe memory-limited hash tables at the join
// sites. Sort-merge, Simple, Grace, Hybrid and dynamic Hybrid differ only in
// the split tables they route through, the files they partition into, and
// what they do with the overflow.

// newPhase starts a phase with no steps. bucket is the 0-based bucket or
// partition the phase joins, or -1. The phase takes the attempt's step and
// process lists, so a phase started before the previous one has run grows
// lists of its own.
func (rc *runCtx) newPhase(name string, ops opLabels, bucket int) phaseSpec {
	ps := phaseSpec{name: name, ops: ops, bucket: bucket, steps: rc.steps[:0], procs: rc.procs[:0]}
	rc.steps, rc.procs = nil, nil
	return ps
}

// relSources lists a base relation's fragments at the sites holding them.
func relSources(rel *gamma.Relation) []fileAt {
	src := make([]fileAt, len(rel.Fragments))
	for s, f := range rel.Fragments {
		src[s] = fileAt{site: s, f: f}
	}
	return src
}

// router says where scanned tuples go. route maps a tuple's routing hash
// to one of the slots of the producer's stream cache, or returns ok=false
// to drop the tuple (a bit-filter miss); stream names the (site, tag)
// stream of a slot and runs once per slot and producer, when the slot is
// first used.
type router struct {
	slots  int
	route  func(a *cost.Acct, h uint64) (slot int, ok bool)
	stream func(slot int) (dst, tag int)
}

// toSite routes every tuple to the one stream (dst, tag).
func toSite(dst, tag int) router {
	return router{
		slots:  1,
		route:  func(*cost.Acct, uint64) (int, bool) { return 0, true },
		stream: func(int) (int, int) { return dst, tag },
	}
}

// scan adds one produce step per source: it scans the file, applies the
// selection p, hashes attr with seed and sends each tuple where r says.
// recvFilter first charges the receipt of the join sites' shared bit-filter
// packet.
func (rc *runCtx) scan(ps *phaseSpec, srcs []fileAt, attr int, p pred.Pred, seed uint64, recvFilter bool, r router) {
	for _, src := range srcs {
		f := src.f
		ps.add(produce, src.site, func(a *cost.Acct, snd *netsim.Sender, _ []*netsim.Batch) {
			if recvFilter {
				a.AddCPU(rc.m.PacketProto)
			}
			streams := snd.StreamCache(r.slots)
			readNs, hashNs := rc.m.ReadTuple, rc.m.Hash
			f.ScanPages(a, func(pg []tuple.Tuple) bool {
				for k := range pg {
					t := &pg[k]
					a.AddCPU(readNs)
					if !rc.scanPred(a, p, t) {
						continue
					}
					a.AddCPU(hashNs)
					h := split.Hash(t.Int(attr), seed)
					i, ok := r.route(a, h)
					if !ok {
						continue
					}
					out := streams[i]
					if out == nil {
						out = snd.Stream(r.stream(i))
						streams[i] = out
					}
					snd.SendTo(out, t, h)
				}
				return true
			})
		})
	}
}

// cachedStream returns the handle in cache slot i, resolving stream
// (dst, tag) into the slot on first use. It is small enough to inline, so a
// producer's per-tuple lookup makes no call.
func cachedStream(snd *netsim.Sender, cache []*netsim.Stream, i, dst, tag int) *netsim.Stream {
	if out := cache[i]; out != nil {
		return out
	}
	return resolveStream(snd, cache, i, dst, tag)
}

// resolveStream resolves stream (dst, tag) into cache slot i. It stays out
// of line so that cachedStream inlines.
//
//go:noinline
func resolveStream(snd *netsim.Sender, cache []*netsim.Stream, i, dst, tag int) *netsim.Stream {
	out := snd.Stream(dst, tag)
	cache[i] = out
	return out
}

// partRoute routes through a partitioning split table, one cache slot per
// table entry: a disk bucket goes to the disk site storing its fragment
// under the bucket's tag, and a Hybrid table's in-memory bucket goes to its
// join site for build or probe.
func partRoute(pt *split.PartTable) router {
	return router{
		slots: pt.Entries(),
		route: func(_ *cost.Acct, h uint64) (int, bool) { return pt.Entry(h), true },
		stream: func(e int) (int, int) {
			b, dst := pt.Route(e)
			if b == 0 && pt.JoinSites != nil {
				b = tagProbe
			}
			return dst, b
		},
	}
}

// partitionPhase redistributes a base relation through a partitioning split
// table into a sink's temp files: Grace's bucket forming and sort-merge's
// partitioning.
func (rc *runCtx) partitionPhase(name, op string, rel *gamma.Relation, attr int, p pred.Pred,
	pt *split.PartTable, sink *fileSink) error {
	ps := rc.newPhase(name, opLabels{produce: "scan", consume: op}, -1)
	ps.end.SplitEntries = pt.Entries()
	rc.scan(&ps, relSources(rel), attr, p, 0, false, partRoute(pt))
	sink.install(&ps, consume, nil)
	return rc.runPhase(ps)
}

// joiningTable is the joining split table over sites (h mod n): a Hybrid
// table with no disk buckets.
func (rc *runCtx) joiningTable(sites []int) (*split.PartTable, error) {
	return split.NewHybrid(1, rc.diskSites, sites)
}

// joining returns the joining table over rc.joinSites and its router. Every
// bucket and overflow level of an attempt shares them: they are built on
// first use and again after failover shrinks rc.joinSites.
func (rc *runCtx) joining() (*split.PartTable, router, error) {
	if rc.joinTable == nil {
		jt, err := rc.joiningTable(rc.joinSites)
		if err != nil {
			return nil, router{}, err
		}
		rc.joinTable, rc.joinRoute = jt, partRoute(jt)
	}
	return rc.joinTable, rc.joinRoute, nil
}

// sinkFile is one temp file a fileSink writes: the disk site that appends to
// it, the stream tag naming it, and the bit filter its tuples pass through,
// if any.
type sinkFile struct {
	site, tag int
	f         *wiss.File
	flt       *bitfilter.Filter
}

// fileSink writes tagged streams into temp files: Grace and Hybrid buckets,
// overflow files, dynamic-Hybrid spills and sort-merge partitions. At each
// site its stage appends every batch to the file its tag names, then
// flushes that site's files in the order they were added.
type fileSink struct {
	rc      *runCtx
	files   []sinkFile
	forming bool // count Table 2 forming writes
	// building sets the file's bit filter from the arriving inner tuples;
	// otherwise outer tuples that miss it are dropped before the write.
	building bool
}

func (s *fileSink) add(site, tag int, f *wiss.File, flt *bitfilter.Filter) {
	s.files = append(s.files, sinkFile{site: site, tag: tag, f: f, flt: flt})
}

// grouped orders the files by site, keeping the order they were added in
// within a site, so each site's stage works on one contiguous run.
func (s *fileSink) grouped() []sinkFile {
	bySite := func(x, y sinkFile) int { return cmp.Compare(x.site, y.site) }
	if !slices.IsSortedFunc(s.files, bySite) {
		slices.SortStableFunc(s.files, bySite)
	}
	return s.files
}

// at returns the files site writes.
func (s *fileSink) at(site int) []sinkFile {
	files := s.grouped()
	lo := 0
	for lo < len(files) && files[lo].site != site {
		lo++
	}
	hi := lo
	for hi < len(files) && files[hi].site == site {
		hi++
	}
	return files[lo:hi]
}

// sources lists the non-empty files of one stream, in site order.
func (s *fileSink) sources(tag int) []fileAt {
	var src []fileAt
	for _, sf := range s.grouped() {
		if sf.tag == tag && sf.f.Len() > 0 {
			src = append(src, fileAt{site: sf.site, f: sf.f})
		}
	}
	return src
}

// install adds the sink's step to role r of phase ps at each of sites, or at
// every site holding one of its files when sites is nil.
func (s *fileSink) install(ps *phaseSpec, r role, sites []int) {
	if sites != nil {
		for _, site := range sites {
			ps.add(r, site, s.stage(s.at(site)))
		}
		return
	}
	files := s.grouped()
	for lo := 0; lo < len(files); {
		hi := lo + 1
		for hi < len(files) && files[hi].site == files[lo].site {
			hi++
		}
		ps.add(r, files[lo].site, s.stage(files[lo:hi]))
		lo = hi
	}
}

// stage appends the batches addressed to one site's files and flushes them.
func (s *fileSink) stage(files []sinkFile) stepFn {
	rc := s.rc
	return func(a *cost.Acct, _ *netsim.Sender, batches []*netsim.Batch) {
		var local, remote, dropped int64
		var keepBuf [16]int32
		keep := keepBuf[:0] // survivors of one packet's filter test
		for _, b := range batches {
			sf := findFile(files, b.Tag)
			if sf == nil {
				continue
			}
			// A packet's filter charges may all precede its appends: both
			// are CPU time, and no note or other file lands between them.
			switch {
			case sf.flt == nil:
				sf.f.AppendBatch(a, b.Tuples)
			case s.building:
				a.AddCPU(cost.ScaleNs(len(b.Hashes), rc.m.FilterBit))
				for _, h := range b.Hashes {
					sf.flt.Set(h)
				}
				sf.f.AppendBatch(a, b.Tuples)
			default:
				a.AddCPU(cost.ScaleNs(len(b.Hashes), rc.m.FilterBit))
				keep = keep[:0]
				for i, h := range b.Hashes {
					if sf.flt.Test(h) {
						keep = append(keep, int32(i))
					}
				}
				dropped += int64(len(b.Hashes) - len(keep))
				sf.f.AppendSelected(a, b.Tuples, keep)
			}
			if b.Local {
				local += int64(len(b.Tuples))
			} else {
				remote += int64(len(b.Tuples))
			}
		}
		for i := range files {
			files[i].f.Flush(a)
		}
		if s.forming {
			rc.mFormLocal.Add(local)
			rc.mFormRemote.Add(remote)
		}
		rc.filterDropped.Add(dropped)
	}
}

// findFile returns the file a stream tag names among one site's files, or
// nil for another operator's stream. A site's tags are usually consecutive,
// which the first probe exploits.
func findFile(files []sinkFile, tag int) *sinkFile {
	if len(files) == 0 {
		return nil
	}
	if k := tag - files[0].tag; k >= 0 && k < len(files) && files[k].tag == tag {
		return &files[k]
	}
	for i := range files {
		if files[i].tag == tag {
			return &files[i]
		}
	}
	return nil
}

// storeAt adds the result-store operator to role r of phase ps at every
// disk site: it appends the result tuples to the site's fragment of the
// result relation, charging tuple copies and page writes. The site's slot
// counts the stored tuples across phases; the last partial page is never
// written.
func (rc *runCtx) storeAt(ps *phaseSpec, r role) {
	perPage := int64(max(rc.m.P.PageBytes/tuple.JoinedBytes, 1))
	for _, ds := range rc.diskSites {
		out := &rc.slots[ds]
		resultFileID := int64(-1000 - ds) // stable pseudo file id per site
		ps.add(r, ds, func(a *cost.Acct, _ *netsim.Sender, batches []*netsim.Batch) {
			d, err := rc.c.Disk(ds)
			if err != nil {
				rc.fail(fmt.Errorf("core: store writer: %w", err))
				return
			}
			for _, b := range batches {
				if b.Tag != tagStore {
					continue
				}
				for range b.Joined {
					a.AddCPU(rc.m.WriteTuple)
					out.stored++
					if out.stored%perPage == 0 {
						d.WritePage(a, resultFileID)
					}
				}
			}
		})
	}
}

// joinState is one join site's share of a build/probe pass: its hash table,
// bit filter, and the inner and outer overflow files at its overflow disk.
type joinState struct {
	site         int
	tbl          *gamma.HashTable
	flt          *bitfilter.Filter
	cutoff       uint64 // the table's cutoff, published at the build barrier
	rover, sover *wiss.File
}

// newJoinStates creates the per-join-site state of one pass, in join-site
// order; the overflow files are named prefix.rover and prefix.sover.
func (rc *runCtx) newJoinStates(prefix string) ([]joinState, error) {
	js := make([]joinState, len(rc.joinSites))
	for i, j := range rc.joinSites {
		st := &js[i]
		st.site = j
		st.tbl = gamma.NewHashTable(rc.m, rc.tableCap(), rc.spec.RAttr)
		if rc.spec.BitFilter {
			st.flt = bitfilter.New(rc.filterBits)
		}
		home := rc.c.OverflowDiskSite(j)
		var err error
		if st.rover, err = rc.newTempFile(home, prefix, ".rover", -1); err != nil {
			return nil, err
		}
		if st.sover, err = rc.newTempFile(home, prefix, ".sover", -1); err != nil {
			return nil, err
		}
	}
	return js, nil
}

// buildPass makes each join site build its hash table from the tuples
// routed to it, setting its bit filter from every one of them. Tuples above
// the table's cutoff, and those a histogram clearing evicts, go to the
// site's inner overflow file, written at its overflow disk.
func (rc *runCtx) buildPass(ps *phaseSpec, js []joinState) {
	rover := fileSink{rc: rc, files: make([]sinkFile, 0, len(js))}
	for i := range js {
		st := &js[i]
		home := rc.c.OverflowDiskSite(st.site)
		tag := tagROverBase + st.site
		rover.add(home, tag, st.rover, nil)
		ps.add(consume, st.site, func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			tbl := st.tbl
			over := snd.Stream(home, tag)
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				for i := range b.Tuples {
					h := b.Hashes[i]
					if st.flt != nil {
						// The filter covers every inner tuple of this pass,
						// overflow-bound ones included, so dropping outer
						// misses is always safe.
						a.AddCPU(rc.m.FilterBit)
						st.flt.Set(h)
					}
					if gamma.AboveCutoff(tbl.Cutoff(), h) {
						rc.mROver.Add(1)
						snd.SendTo(over, &b.Tuples[i], h)
						continue
					}
					evs := tbl.Insert(a, &b.Tuples[i], h)
					for k := range evs {
						rc.mROver.Add(1)
						snd.SendTo(over, &evs[k], 0)
					}
				}
			}
			rc.applyMemPressure(a, snd, over, tbl)
			rc.overflowClears.Add(int64(tbl.Overflows()))
		})
	}
	rover.install(ps, write, nil)
}

// probePass scans the outer sources through pt and probes the join sites'
// tables. Tuples of pt's disk buckets go to their disk sites under the
// bucket tag; the rest pass the join site's bit filter and cutoff and are
// probed, or appended to its outer overflow file. Results go to the store.
func (rc *runCtx) probePass(ps *phaseSpec, js []joinState, srcs []fileAt, p pred.Pred, seed uint64, pt *split.PartTable) {
	// Cutoffs are published to the scheduler at the build barrier and ride
	// in the outer relation's split table (the h' functions of Section
	// 3.2). The site-indexed slice keeps the per-tuple lookup a bounds check.
	bySite := make([]*joinState, len(rc.c.Sites))
	sover := fileSink{rc: rc, files: make([]sinkFile, 0, len(js))}
	for i := range js {
		st := &js[i]
		st.cutoff = st.tbl.Cutoff()
		bySite[st.site] = st
		sover.add(rc.c.OverflowDiskSite(st.site), tagSOverBase+st.site, st.sover, nil)
	}
	// Overflow appends run before the probe at a site playing both roles.
	sover.install(ps, consume, nil)

	// The outer scan routes inline rather than through a router: every
	// overflow level rescans the outer relation, so this is the hottest loop.
	attr := rc.spec.SAttr
	ne := pt.Entries()
	for _, src := range srcs {
		f := src.f
		ps.add(produce, src.site, func(a *cost.Acct, snd *netsim.Sender, _ []*netsim.Batch) {
			if rc.spec.BitFilter {
				a.AddCPU(rc.m.PacketProto) // receive the shared filter packet
			}
			var dropped, over int64
			// Slot e holds entry e's bucket or probe stream, slot ne+e its
			// outer overflow stream.
			streams := snd.StreamCache(2 * ne)
			readNs, hashNs, filterNs := rc.m.ReadTuple, rc.m.Hash, rc.m.FilterBit
			f.ScanPages(a, func(pg []tuple.Tuple) bool {
				for k := range pg {
					t := &pg[k]
					a.AddCPU(readNs)
					if !rc.scanPred(a, p, t) {
						continue
					}
					a.AddCPU(hashNs)
					h := split.Hash(t.Int(attr), seed)
					e := pt.Entry(h)
					b, dst := pt.Route(e)
					if b != 0 {
						snd.SendTo(cachedStream(snd, streams, e, dst, b), t, h)
						continue
					}
					st := bySite[dst]
					if st.flt != nil {
						a.AddCPU(filterNs)
						if !st.flt.Test(h) {
							dropped++
							continue
						}
					}
					if gamma.AboveCutoff(st.cutoff, h) {
						over++
						snd.SendTo(cachedStream(snd, streams, ne+e, rc.c.OverflowDiskSite(dst), tagSOverBase+dst), t, h)
						continue
					}
					snd.SendTo(cachedStream(snd, streams, e, dst, tagProbe), t, h)
				}
				return true
			})
			rc.filterDropped.Add(dropped)
			rc.mSOver.Add(over)
		})
	}
	for i := range js {
		st := &js[i]
		ps.add(consume, st.site, func(a *cost.Acct, snd *netsim.Sender, batches []*netsim.Batch) {
			em := rc.newEmitter(st.site, snd)
			defer em.close()
			onMatch := func(outer, match *tuple.Tuple) { em.emit(a, match, outer) }
			for _, b := range batches {
				if b.Tag != tagProbe {
					continue
				}
				st.tbl.ProbeBatch(a, b.Tuples, b.Hashes, attr, onMatch)
			}
			rc.noteChains(st.site, st.tbl)
		})
	}
	rc.storeAt(ps, write)
}

// endPass recycles the pass's hash tables and returns the overflow files
// feeding the next level, paired by join site in join-site order. An outer
// overflow can only exist where an inner one raised the cutoff, so pairing
// on the inner file covers everything; blockJoinLevel relies on the
// alignment. Call it past the probe barrier, when no worker still holds a
// pointer into the tables (error paths leave them to the garbage
// collector).
func (rc *runCtx) endPass(js []joinState) (rover, sover []fileAt) {
	for i := range js {
		st := &js[i]
		st.tbl.Release()
		st.tbl = nil
		if st.rover.Len() > 0 {
			home := rc.c.OverflowDiskSite(st.site)
			rover = append(rover, fileAt{site: home, f: st.rover})
			sover = append(sover, fileAt{site: home, f: st.sover})
		}
	}
	return rover, sover
}
