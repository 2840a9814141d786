// Package netsim simulates Gamma's 80 Mbit/s token-ring interconnect at
// packet granularity. Tuples travelling between operator processes are
// buffered into 2 KB packets per destination; packets between processes on
// the same site are "short-circuited" by the communications software —
// they skip the wire and most of the protocol stack but still cost CPU
// (the paper stresses that this protocol cost cannot be ignored).
//
// Transport batching: packets are the unit of *accounting* (every packet is
// charged, sequenced, and exposed to the fault injector exactly as before),
// but the unit of *delivery* is a run — up to Network.RunLength consecutive
// packets to the same destination handed to the exchange in one operation.
// Runs exist purely to cut wall-clock overhead (channel operations,
// per-packet allocation); they are invisible to the simulated cost model,
// and RunLength 1 reproduces the legacy packet-at-a-time delivery bit for
// bit (see Network.SetRunLength).
package netsim

import (
	"slices"
	"strconv"
	"sync/atomic"

	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/freelist"
	"gammajoin/internal/tuple"
)

// Counters is a snapshot of network activity. Tuple and wire-byte traffic
// is typed (cost.Tuples, cost.Bytes); packet tallies are bare event counts.
type Counters struct {
	PacketsLocal  int64
	PacketsRemote int64
	TuplesLocal   cost.Tuples
	TuplesRemote  cost.Tuples
	BytesOnWire   cost.Bytes

	// Fault accounting: remote packets re-sent after an injected drop, and
	// spurious duplicate copies delivered (and discarded by the receiver).
	PacketsRetransmitted int64
	PacketsDuplicated    int64
}

// Sub returns c - o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		PacketsLocal:  c.PacketsLocal - o.PacketsLocal,
		PacketsRemote: c.PacketsRemote - o.PacketsRemote,
		TuplesLocal:   c.TuplesLocal - o.TuplesLocal,
		TuplesRemote:  c.TuplesRemote - o.TuplesRemote,
		BytesOnWire:   c.BytesOnWire - o.BytesOnWire,

		PacketsRetransmitted: c.PacketsRetransmitted - o.PacketsRetransmitted,
		PacketsDuplicated:    c.PacketsDuplicated - o.PacketsDuplicated,
	}
}

// LocalFraction reports the fraction of tuples that short-circuited the
// network (the paper's Table 2 metric).
func (c Counters) LocalFraction() float64 {
	total := c.TuplesLocal + c.TuplesRemote
	if total == 0 {
		return 0
	}
	return float64(c.TuplesLocal.Count()) / float64(total.Count())
}

// DefaultRunLength is the delivery-run size (in packets) used by networks
// that have not been tuned with SetRunLength. Thirty-two 2 KB packets are
// eight 8 KB disk pages of bytes (288 Wisconsin tuples, about 7.4 pages of
// 39) — long enough to amortize the per-delivery channel operation into
// noise, short enough that a run is a few tens of kilobytes.
const DefaultRunLength = 32

// Network carries packets between sites and accounts for them.
type Network struct {
	model *cost.Model

	// runLen is the delivery-run size in packets (see the package comment).
	// It is set at cluster construction or between queries, never while
	// senders are live.
	runLen int

	packetsLocal  atomic.Int64
	packetsRemote atomic.Int64
	tuplesLocal   atomic.Int64
	tuplesRemote  atomic.Int64
	bytesOnWire   atomic.Int64

	packetsRetransmitted atomic.Int64
	packetsDuplicated    atomic.Int64

	faults *fault.Registry
}

// SetFaults attaches a fault registry; remote packet sends consult it for
// drops (retransmission) and duplication. Call at cluster setup, before
// the network is shared (gamma.Cluster.EnableFaults does this).
func (n *Network) SetFaults(r *fault.Registry) { n.faults = r }

// SetRunLength sets the delivery-run size in packets. Length 1 restores the
// legacy packet-at-a-time delivery; larger lengths only change how many
// packets travel per exchange operation, never what is charged. Call it
// while no sender is live: at cluster setup or between queries.
func (n *Network) SetRunLength(packets int) {
	if packets < 1 {
		packets = 1
	}
	n.runLen = packets
}

// RunLength returns the current delivery-run size in packets.
func (n *Network) RunLength() int { return n.runLen }

// New returns a network using cost model m.
func New(m *cost.Model) *Network { return &Network{model: m, runLen: DefaultRunLength} }

// DetectionDelay is the failure detector: given the simulated instant `at`
// when a site went silent, it returns how long the scheduler waits before
// declaring the site dead. Heartbeats tick on a fixed grid (every
// Model.Heartbeat ns since time zero), the detector tolerates
// Model.HeartbeatMisses missed beats, and the fault registry may charge
// extra confirmation beats (DetectJitterRate) — so the declaration lands on
// a deterministic grid instant strictly after the crash.
func (n *Network) DetectionDelay(site int, at cost.SimNs) cost.SimNs {
	hb := n.model.Heartbeat
	if hb <= 0 {
		return 0
	}
	beats := int64(n.model.HeartbeatMisses + n.faults.DetectExtraBeats(site))
	grid := at.Nanoseconds() / hb.Nanoseconds() // whole heartbeat periods elapsed
	declaredAt := cost.ScaleNs(grid+beats, hb)
	if declaredAt <= at {
		declaredAt += hb
	}
	return declaredAt - at
}

// Counters returns a snapshot of the network counters. Senders tally their
// packets privately and publish them here only in FlushAll (and Release),
// so the snapshot counts exactly the senders that have flushed: read it at
// a barrier after every producer's FlushAll, as the phase and report code
// does, never mid-phase.
func (n *Network) Counters() Counters {
	return Counters{
		PacketsLocal:  n.packetsLocal.Load(),
		PacketsRemote: n.packetsRemote.Load(),
		TuplesLocal:   cost.Tuples(n.tuplesLocal.Load()),
		TuplesRemote:  cost.Tuples(n.tuplesRemote.Load()),
		BytesOnWire:   cost.Bytes(n.bytesOnWire.Load()),

		PacketsRetransmitted: n.packetsRetransmitted.Load(),
		PacketsDuplicated:    n.packetsDuplicated.Load(),
	}
}

// Batch is one packet's worth of tuples addressed to one operator stream.
// Exactly one of the embedded tuple run or Joined is populated. A Sender
// carves every packet from a slab it owns (see slab); receivers hand
// processed packets back via PutBatches, and a slab is reused once every
// packet carved from it is back, so steady-state packet traffic allocates
// nothing.
type Batch struct {
	Src   int   // producing site
	Dst   int   // destination site
	Local bool  // short-circuited (Src == Dst)
	Tag   int   // stream tag, interpreted by the consumer (e.g. overflow)
	Seq   int64 // per-sender sequence number, for deterministic replay

	tuple.Batch                // Tuples + parallel join-attribute Hashes
	Joined      []tuple.Joined // composite result tuples

	// Dups is how many spurious duplicate copies of this packet the
	// (faulted) network delivered; the receiver charges protocol CPU to
	// detect and discard each one.
	Dups int

	slab *slab // the slab this packet was carved from; nil if built by hand
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) + len(b.Joined) }

// slabPackets is how many packets a sender carves from one slab.
const slabPackets = 64

// slabKind is what a slab's packets carry: plain tuples with their
// join-attribute hashes, or joined result tuples. A stream (dst, tag)
// carries one kind, so its packets all come from slabs of that kind.
type slabKind uint8

const (
	plainSlab slabKind = iota
	joinedSlab
)

func (k slabKind) String() string {
	if k == joinedSlab {
		return "joined"
	}
	return "plain"
}

// slab is one contiguous block of packets of one kind: slabPackets headers
// plus their tuple and hash arrays (a plain slab) or their joined-tuple
// array (a joined slab), in which packet i owns the i-th packet-sized
// window. A sender carves packets from its current slab of each kind in
// order, so its outgoing tuples land in consecutive memory instead of in
// scattered recycled buffers last touched by some other consumer.
//
// refs is packets carved minus packets put back, except that the carving
// sender adds its carve count only when it moves on to another slab
// (retire). Until then puts can only drive it below zero; afterwards it
// falls monotonically, and whichever of the retire or the last PutBatch
// brings it to zero recycles the slab — exactly once.
type slab struct {
	refs   atomic.Int32
	next   int // packets carved so far; only the owning sender touches it
	kind   slabKind
	per    int            // per-packet window size of the arrays below
	tuples []tuple.Tuple  // plain slabs only
	hashes []uint64       // plain slabs only
	joined []tuple.Joined // joined slabs only
	pkts   [slabPackets]Batch
}

// slabPools recycles slabs across senders, phases and queries, one list
// per kind.
var slabPools [2]freelist.List[*slab]

// slabsOut counts slabs handed to senders and not yet recycled, so tests
// can check that every exit path returns the slabs it touched.
var slabsOut atomic.Int64

// SlabsOut reports how many packet slabs are handed out and not yet
// recycled, process-wide. A query that returned every packet it carved
// leaves the count where it found it.
func SlabsOut() int64 { return slabsOut.Load() }

// getSlab returns an uncarved slab of the kind whose packets hold per
// tuples each.
func getSlab(kind slabKind, per int) *slab {
	sl, ok := slabPools[kind].Get()
	if !ok {
		sl = &slab{kind: kind}
	}
	if sl.per != per {
		sl.per = per
		if kind == plainSlab {
			sl.tuples = make([]tuple.Tuple, slabPackets*per)
			sl.hashes = make([]uint64, slabPackets*per)
		} else {
			sl.joined = make([]tuple.Joined, slabPackets*per)
		}
	}
	sl.next = 0
	slabsOut.Add(1)
	return sl
}

// release adds n to the slab's reference count and recycles the slab when
// the count reaches zero (see slab).
func (sl *slab) release(n int32) {
	if sl.refs.Add(n) == 0 {
		slabsOut.Add(-1)
		slabPools[sl.kind].Put(sl)
	}
}

// PutBatch hands one packet back to its slab. The caller must not touch it
// afterwards. A batch built by hand has no slab and is left alone.
func PutBatch(b *Batch) {
	if b != nil && b.slab != nil {
		b.slab.release(-1)
	}
}

// PutBatches hands back every packet in the slice. Receivers call it after
// the tuples have been copied out (consumed batches must never be retained).
func PutBatches(bs []*Batch) {
	for _, b := range bs {
		PutBatch(b)
	}
}

// runPool recycles the []*Batch run slices that travel through exchanges.
var runPool freelist.List[[]*Batch]

func getRun() []*Batch {
	if run, ok := runPool.Get(); ok {
		return run
	}
	return make([]*Batch, 0, DefaultRunLength)
}

// PutRun recycles a delivery-run slice (not the batches inside it).
func PutRun(run []*Batch) { runPool.Put(run[:0]) }

// Recv charges the receive-side protocol cost for one batch to a.
// Consumers call it once per batch before processing the tuples.
func (n *Network) Recv(a *cost.Acct, b *Batch) {
	if b.Local {
		a.AddCPU(n.model.PacketProtoLocal)
	} else {
		a.AddCPU(n.model.PacketProto)
	}
	// Each duplicate copy costs a protocol pass to recognise the repeated
	// sequence number and drop the payload.
	for i := 0; i < b.Dups; i++ {
		a.AddCPU(n.model.PacketProto)
	}
}

// Stream is one output stream of a sender: the tuples it sends to one
// destination under one tag, and the packet under construction for them.
// Handles come from Sender.Stream and stay valid until the sender's Release,
// across FlushAll; a producer resolves each of its streams once and then
// sends through the handle (SendTo, SendJoinedTo) with no tag search. The
// open packet's tuple windows are the full packet-sized windows of its
// slab, so each send stores into slot n by index; the packet's own slices
// are cut to length when it is sealed.
type Stream struct {
	pkt    *Batch         // packet under construction; nil when none is open
	n      int            // tuples stored in pkt
	kind   slabKind       // what pkt carries
	listed bool           // recorded in the sender's first-write order since the last FlushAll
	tuples []tuple.Tuple  // pkt's tuple window (plain packets)
	hashes []uint64       // pkt's hash window (plain packets)
	joined []tuple.Joined // pkt's joined window (joined packets)

	dst, tag int
}

// tagStreams is one tag's destination-indexed stream handles.
type tagStreams struct {
	tag     int
	streams []*Stream
}

// tally is a sender's private network accounting, published to the
// Network's shared counters once per FlushAll/Release instead of with
// several contended atomic adds per packet.
type tally struct {
	packetsLocal, packetsRemote int64
	tuplesLocal, tuplesRemote   int64
	bytesOnWire                 int64
	retransmitted, duplicated   int64
}

// Sender buffers outgoing tuples into per-destination packets on behalf of
// one producing process, and full packets into per-destination delivery
// runs. It is single-goroutine; create one per producer.
//
// Each (destination, tag) pair is one Stream. Stream finds a pair's handle
// in a dense destination-indexed slice per tag, with the current tag's
// slice cached; producers on hot paths resolve their handles once into a
// cache the sender owns (StreamCache) and send through them, so the
// per-tuple path is one cache load and one slot store. Send resolves the
// handle on every call and is kept for callers off the hot paths.
type Sender struct {
	net    *Network
	a      *cost.Acct
	src    int
	out    func(dst int, run []*Batch)
	capT   int        // plain tuples per packet
	capJ   int        // joined tuples per packet
	wtNs   cost.SimNs // cached model.WriteTuple (hot: charged once per tuple sent)
	runLen int        // packets per delivery run
	seq    int64
	slabs  [2]*slab // per kind, the slab the next packet is carved from; nil until the first

	curTag  int
	cur     []*Stream    // destination-indexed handles for curTag (aliases tags[i].streams)
	curIdx  int          // index of curTag in tags
	tags    []tagStreams // tag directory, in first-use order
	streams []*Stream    // every handle this sender has made; the first live are in use
	live    int
	cache   []*Stream  // backing store of the StreamCache slices handed out
	order   []*Stream  // stream first-write order, for deterministic FlushAll
	pending [][]*Batch // destination-indexed delivery runs being filled
	pdsts   []int      // destinations with a pending slot, first-use order
	pseen   []bool     // destination-indexed membership flags for pdsts
	tally   tally      // unpublished network counters

	// first and firstPtrs back the first eight handles and the handle
	// list, and cacheBuf the first handle caches, so a fresh sender with
	// few streams allocates none of them.
	first     [8]Stream
	firstPtrs [8]*Stream
	cacheBuf  [16]*Stream

	// colocated, when non-nil, overrides the short-circuit test: after a
	// failover moves a dead site's roles to its ring neighbor, streams
	// between logical sites hosted on the same physical site short-circuit
	// even though their logical ids differ. Batch.Src/Dst stay logical —
	// the consumer-side (Src, Seq) replay order and the fault schedule's
	// packet coordinates must not depend on where roles physically run.
	colocated func(dst int) bool
}

// SetColocated installs the physical-colocation predicate. Call before the
// first Send; the runner does this at phase launch once any site is dead.
func (s *Sender) SetColocated(p func(dst int) bool) { s.colocated = p }

// local reports whether a packet to dst short-circuits the wire.
func (s *Sender) local(dst int) bool {
	if s.colocated != nil {
		return s.colocated(dst)
	}
	return dst == s.src
}

// senderPool recycles Sender objects — and, importantly, their stream
// handles, tag directories, handle caches and pending-run arrays — across
// phase workers. A query creates a sender per worker per phase, so without
// pooling these small objects dominate the allocation profile.
var senderPool freelist.List[*Sender]

// NewSender creates a sender for producing site src. Every full delivery
// run is handed to deliver, which typically appends it to the current
// phase's exchange lane from src to the destination. Call Release when the
// producer is done (after FlushAll) to recycle the sender.
func (n *Network) NewSender(a *cost.Acct, src int, deliver func(dst int, run []*Batch)) *Sender {
	rl := n.runLen
	if rl < 1 {
		rl = 1
	}
	s, ok := senderPool.Get()
	if !ok {
		s = new(Sender)
	}
	s.net, s.a, s.src, s.out = n, a, src, deliver
	s.capT = n.model.TuplesPerPacket(tuple.Bytes)
	s.capJ = n.model.TuplesPerPacket(tuple.JoinedBytes)
	s.wtNs = n.model.WriteTuple
	s.runLen = rl
	s.seq = 0
	s.curTag = int(^uint(0) >> 1) // no current tag yet
	s.cur = nil
	s.colocated = nil
	return s
}

// Release recycles the sender and retires its slabs. Call only after
// FlushAll, when no packet can still be buffered; any stragglers (the
// partial packets and undelivered runs of a sender released without
// FlushAll) are recycled, not delivered, and any unpublished counters are
// published. The caller must not use the sender, its stream handles or its
// caches again.
func (s *Sender) Release() {
	s.publish()
	for _, st := range s.streams[:s.live] {
		PutBatch(st.pkt)
		*st = Stream{}
	}
	s.live = 0
	for _, ts := range s.tags {
		clear(ts.streams)
	}
	for _, dst := range s.pdsts {
		if run := s.pending[dst]; run != nil {
			PutBatches(run)
			PutRun(run)
			s.pending[dst] = nil
		}
		s.pseen[dst] = false
	}
	s.retire(plainSlab)
	s.retire(joinedSlab)
	s.tags = s.tags[:0]
	s.cache = s.cache[:0]
	s.order = s.order[:0]
	s.pdsts = s.pdsts[:0]
	s.cur = nil
	s.a, s.out, s.colocated = nil, nil, nil
	senderPool.Put(s)
}

// publish adds the sender's private tallies to the network's counters and
// zeroes them.
func (s *Sender) publish() {
	t := &s.tally
	if *t == (tally{}) {
		return
	}
	n := s.net
	n.packetsLocal.Add(t.packetsLocal)
	n.packetsRemote.Add(t.packetsRemote)
	n.tuplesLocal.Add(t.tuplesLocal)
	n.tuplesRemote.Add(t.tuplesRemote)
	n.bytesOnWire.Add(t.bytesOnWire)
	n.packetsRetransmitted.Add(t.retransmitted)
	n.packetsDuplicated.Add(t.duplicated)
	*t = tally{}
}

// selectTag makes tag the cached current tag, adding it to the directory
// on first use.
func (s *Sender) selectTag(tag int) {
	i := 0
	for i < len(s.tags) && s.tags[i].tag != tag {
		i++
	}
	if i == len(s.tags) {
		if i < cap(s.tags) {
			// Reuse a pooled sender's cleared handle array for the new tag.
			s.tags = s.tags[:i+1]
			s.tags[i].tag = tag
		} else {
			s.tags = append(s.tags, tagStreams{tag: tag})
		}
	}
	s.curTag, s.curIdx, s.cur = tag, i, s.tags[i].streams
}

// Stream returns the handle of stream (dst, tag), making it on first use.
// Resolving a handle opens no packet and does not count as a write: a
// stream enters FlushAll's first-write order when it is first sent to.
func (s *Sender) Stream(dst, tag int) *Stream {
	if tag == s.curTag && dst < len(s.cur) {
		if st := s.cur[dst]; st != nil {
			return st
		}
	}
	return s.resolve(dst, tag)
}

// resolve is Stream's slow path: it switches the current tag and makes the
// stream's handle if it has none, reusing one a pooled sender made earlier.
func (s *Sender) resolve(dst, tag int) *Stream {
	if tag != s.curTag {
		s.selectTag(tag)
	}
	if dst < len(s.cur) && s.cur[dst] != nil {
		return s.cur[dst]
	}
	if dst >= len(s.cur) {
		grown := make([]*Stream, dst+1)
		copy(grown, s.cur)
		s.cur = grown
		s.tags[s.curIdx].streams = grown
	}
	if s.live == len(s.streams) {
		s.growStreams()
	}
	st := s.streams[s.live]
	s.live++
	st.dst, st.tag = dst, tag
	s.cur[dst] = st
	return st
}

// growStreams makes more handles: the eight inside the sender first, then
// chunks that double, so a sender with many streams allocates a few times
// rather than once per stream.
func (s *Sender) growStreams() {
	chunk := s.first[:]
	if s.streams == nil {
		s.streams = s.firstPtrs[:0]
	} else {
		chunk = make([]Stream, len(s.streams))
		s.streams = slices.Grow(s.streams, len(chunk))
	}
	for i := range chunk {
		s.streams = append(s.streams, &chunk[i])
	}
}

// StreamCache returns n empty handle slots owned by the sender and valid
// until Release, for a producer to fill with the handles of its streams
// indexed by its own routing key (a split-table entry, a site, a
// partition). A pooled sender reuses the slots' memory, so a steady stream
// of producers allocates none.
func (s *Sender) StreamCache(n int) []*Stream {
	if s.cache == nil {
		s.cache = s.cacheBuf[:0]
	}
	lo := len(s.cache)
	if lo+n > cap(s.cache) {
		// Earlier caches keep the old array; the next pooled life reuses
		// the larger one.
		s.cache = make([]*Stream, 0, max(2*cap(s.cache), n))
		lo = 0
	}
	s.cache = s.cache[:lo+n]
	c := s.cache[lo : lo+n : lo+n]
	clear(c)
	return c
}

// panicKind reports a send of one kind into a stream whose open packet
// holds the other. It is a function of its own so that the message
// building stays out of buffer, which runs once per tuple sent.
func panicKind(dst, tag int, kind, open slabKind) {
	panic("netsim: " + kind.String() + " send into stream (dst " + strconv.Itoa(dst) +
		", tag " + strconv.Itoa(tag) + ") whose open packet is " + open.String())
}

// open carves the next empty packet of the kind for the stream from the
// sender's slab of that kind, taking a fresh slab first if it has none,
// and records the stream in first-write order on its first write since the
// last FlushAll.
func (s *Sender) open(st *Stream, kind slabKind) {
	sl := s.slabs[kind]
	if sl == nil {
		per := s.capT
		if kind == joinedSlab {
			per = s.capJ
		}
		sl = getSlab(kind, per)
		s.slabs[kind] = sl
	}
	i := sl.next
	sl.next++
	lo, hi := i*sl.per, (i+1)*sl.per
	b := &sl.pkts[i]
	*b = Batch{Src: s.src, Dst: st.dst, Local: s.local(st.dst), Tag: st.tag, slab: sl}
	st.pkt, st.n, st.kind = b, 0, kind
	if kind == plainSlab {
		st.tuples, st.hashes = sl.tuples[lo:hi:hi], sl.hashes[lo:hi:hi]
	} else {
		st.joined = sl.joined[lo:hi:hi]
	}
	if sl.next == slabPackets {
		s.retire(kind)
	}
	if !st.listed {
		st.listed = true
		s.order = append(s.order, st)
	}
}

// retire lets go of the sender's slab of the kind, adding its carve count
// to the slab's references so the slab is recycled once every carved
// packet is back.
func (s *Sender) retire(kind slabKind) {
	if sl := s.slabs[kind]; sl != nil {
		s.slabs[kind] = nil
		sl.release(int32(sl.next))
	}
}

// Send routes one tuple (with its precomputed join-attribute hash) to the
// stream (dst, tag), charging the copy into the outgoing packet. It is
// Stream followed by SendTo, with Stream's fast path written out because
// the compiler does not inline it.
func (s *Sender) Send(dst, tag int, t *tuple.Tuple, h uint64) {
	var st *Stream
	if tag == s.curTag && dst < len(s.cur) {
		st = s.cur[dst]
	}
	if st == nil {
		st = s.resolve(dst, tag)
	}
	s.SendTo(st, t, h)
}

// SendTo routes one tuple (with its precomputed join-attribute hash) to a
// stream of this sender, charging the copy into the outgoing packet. The
// tuple is copied immediately; the pointer may target a buffer about to be
// recycled. A plain send into a stream whose open packet holds joined
// tuples is a caller bug and panics.
func (s *Sender) SendTo(st *Stream, t *tuple.Tuple, h uint64) {
	s.a.AddCPU(s.wtNs)
	if st.pkt == nil {
		s.open(st, plainSlab)
	} else if st.kind != plainSlab {
		panicKind(st.dst, st.tag, plainSlab, st.kind)
	}
	n := st.n
	st.tuples[n] = *t
	st.hashes[n] = h
	n++
	if n == len(st.tuples) {
		s.seal(st, n)
		return
	}
	st.n = n
}

// SendJoinedTo routes one composite result tuple, a match still held as
// two halves, to a stream of this sender. The composite is assembled
// directly in the outgoing packet slot, skipping a caller-side 2x tuple
// copy. A joined send into a stream whose open packet holds plain tuples
// is a caller bug and panics.
func (s *Sender) SendJoinedTo(st *Stream, inner, outer *tuple.Tuple) {
	s.a.AddCPU(s.wtNs)
	if st.pkt == nil {
		s.open(st, joinedSlab)
	} else if st.kind != joinedSlab {
		panicKind(st.dst, st.tag, joinedSlab, st.kind)
	}
	n := st.n
	j := &st.joined[n]
	j.Inner = *inner
	j.Outer = *outer
	n++
	if n == len(st.joined) {
		s.seal(st, n)
		return
	}
	st.n = n
}

// seal cuts the stream's open packet to its n tuples, closes the stream's
// slot and flushes the packet.
func (s *Sender) seal(st *Stream, n int) {
	b := st.pkt
	if st.kind == plainSlab {
		b.Tuples, b.Hashes = st.tuples[:n], st.hashes[:n]
		st.tuples, st.hashes = nil, nil
	} else {
		b.Joined = st.joined[:n]
		st.joined = nil
	}
	st.pkt, st.n = nil, 0
	s.flush(b)
}

// flush sends one sealed packet: it is sequenced, charged (protocol, wire,
// fault rolls) exactly as a packet, tallied, then appended to its
// destination's delivery run. Accounting here is per packet and unchanged
// by run batching.
func (s *Sender) flush(b *Batch) {
	m := s.net.model
	t := &s.tally
	s.seq++
	b.Seq = s.seq
	nt := int64(b.Len())
	if b.Local {
		s.a.AddCPU(m.PacketProtoLocal)
		t.packetsLocal++
		t.tuplesLocal += nt
	} else {
		s.a.AddCPU(m.PacketProto)
		s.a.AddNet(m.PacketWire)
		t.packetsRemote++
		t.tuplesRemote += nt
		t.bytesOnWire += int64(m.P.PacketBytes)

		// Fault injection applies to the wire only, so short-circuited
		// local packets are exempt, matching the paper's protocol split.
		retrans, dups := s.net.faults.PacketFate(b.Src, b.Dst, b.Tag, b.Seq)
		for i := 0; i < retrans; i++ {
			s.a.AddCPU(m.PacketProto)
			s.a.AddNet(m.PacketWire)
		}
		if retrans > 0 {
			t.retransmitted += int64(retrans)
			t.bytesOnWire += int64(retrans) * int64(m.P.PacketBytes)
			s.a.Note("net.retransmit", int64(retrans))
		}
		if dups > 0 {
			b.Dups = dups
			s.a.AddNet(cost.ScaleNs(dups, m.PacketWire))
			t.duplicated += int64(dups)
			t.bytesOnWire += int64(dups) * int64(m.P.PacketBytes)
			s.a.Note("net.duplicate", int64(dups))
		}
	}

	// Delivery: append to the destination's run; hand the run over when it
	// reaches the configured length.
	dst := b.Dst
	if s.runLen <= 1 {
		run := getRun()
		s.out(dst, append(run, b))
		return
	}
	if dst >= len(s.pending) {
		grown := make([][]*Batch, dst+1)
		copy(grown, s.pending)
		s.pending = grown
		seen := make([]bool, dst+1)
		copy(seen, s.pseen)
		s.pseen = seen
	}
	if s.pending[dst] == nil {
		s.pending[dst] = getRun()
		if !s.pseen[dst] {
			s.pseen[dst] = true
			s.pdsts = append(s.pdsts, dst)
		}
	}
	s.pending[dst] = append(s.pending[dst], b)
	if len(s.pending[dst]) >= s.runLen {
		s.out(dst, s.pending[dst])
		s.pending[dst] = nil
	}
}

// FlushAll sends every partially filled packet, in the deterministic order
// the streams were first written, then delivers every pending run and
// publishes the sender's counters to the network. Call once when the
// producer's input stream ends (Gamma's end-of-stream close).
func (s *Sender) FlushAll() {
	for _, st := range s.order {
		st.listed = false
		if st.pkt != nil {
			s.seal(st, st.n)
		}
	}
	s.order = s.order[:0]
	for _, dst := range s.pdsts {
		if run := s.pending[dst]; run != nil {
			s.out(dst, run)
			s.pending[dst] = nil
		}
	}
	s.publish()
}
