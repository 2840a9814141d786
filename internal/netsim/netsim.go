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
	"sync"
	"sync/atomic"

	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/slicepool"
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
// that have not been tuned with SetRunLength. Thirty-two packets is sixteen
// disk pages of tuple payload — long enough to amortize the per-delivery
// channel operation into noise, short enough that a run is a few tens of
// kilobytes.
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
// Exactly one of the embedded tuple run or Joined is populated. Batches are
// recycled through a package arena: receivers hand processed batches back
// via PutBatches, so steady-state packet traffic allocates nothing.
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
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) + len(b.Joined) }

// reset empties the batch for reuse, keeping the backing arrays.
func (b *Batch) reset() {
	b.Batch.Reset()
	b.Joined = b.Joined[:0]
	b.Dups = 0
	b.Seq = 0
}

// batchPool recycles packet batches across senders, phases, and queries.
// Buffer capacities are sized lazily by the senders (capT plain tuples or
// capJ joined tuples), so a recycled batch's arrays are already full-size.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty batch from the package arena. Senders call this
// internally; it is exported for tests and for code that fabricates batches
// outside a Sender (which should be rare — see the costcharge analyzer).
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.reset()
	return b
}

// PutBatch recycles one batch. The caller must not touch it afterwards.
func PutBatch(b *Batch) {
	if b != nil {
		batchPool.Put(b)
	}
}

// PutBatches recycles every batch in the slice. Receivers call it after the
// tuples have been copied out (consumed batches must never be retained).
func PutBatches(bs []*Batch) {
	for _, b := range bs {
		PutBatch(b)
	}
}

// runPool recycles the []*Batch run slices that travel through exchanges.
var runPool slicepool.Pool[*Batch]

func getRun() []*Batch {
	if run := runPool.Get(); run != nil {
		return run
	}
	return make([]*Batch, 0, DefaultRunLength)
}

// PutRun recycles a delivery-run slice (not the batches inside it).
func PutRun(run []*Batch) { runPool.Put(run) }

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

// streamKey names one output stream for FlushAll's first-write order: a
// destination and the index of its tag in the sender's tag directory.
type streamKey struct {
	dst int
	ti  int
}

// tagBufs is one tag's destination-indexed packet buffers.
type tagBufs struct {
	tag  int
	bufs []*Batch
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
// The per-stream buffers are organized as dense destination-indexed slices
// per tag, with the current tag's slice cached: operator inner loops send
// long stretches of tuples under one tag while scattering across
// destinations, so the per-tuple stream lookup is one bounds check and one
// slice index. A producer writes only a handful of tags (bucket ids plus a
// few overflow streams), so switching tags is a short linear search of the
// tag directory rather than a map probe.
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

	curTag  int
	curIdx  int         // index of curTag in tags
	cur     []*Batch    // destination-indexed buffers for curTag (aliases tags[curIdx].bufs)
	tags    []tagBufs   // tag directory, in first-use order
	order   []streamKey // stream first-write order, for deterministic FlushAll
	pending [][]*Batch  // destination-indexed delivery runs being filled
	pdsts   []int       // destinations with a pending slot, first-use order
	pseen   []bool      // destination-indexed membership flags for pdsts
	tally   tally       // unpublished network counters

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

// senderPool recycles Sender objects — and, importantly, their per-tag
// stream directories and pending-run arrays — across phase workers. A query
// creates a sender per worker per phase, so without pooling these small
// arrays dominate the allocation profile.
var senderPool = sync.Pool{New: func() any { return new(Sender) }}

// NewSender creates a sender for producing site src. Every full delivery
// run is handed to deliver, which typically enqueues it on the destination
// site's mailbox for the current phase. Call Release when the producer is
// done (after FlushAll) to recycle the sender.
func (n *Network) NewSender(a *cost.Acct, src int, deliver func(dst int, run []*Batch)) *Sender {
	rl := n.runLen
	if rl < 1 {
		rl = 1
	}
	s := senderPool.Get().(*Sender)
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

// Release recycles the sender. Call only after FlushAll, when no packet can
// still be buffered; any stragglers (a cancelled worker's partial buffers)
// are recycled, not delivered, and any unpublished counters are published.
// The caller must not use the sender again.
func (s *Sender) Release() {
	s.publish()
	for _, tb := range s.tags {
		for i, b := range tb.bufs {
			if b != nil {
				PutBatch(b)
				tb.bufs[i] = nil
			}
		}
	}
	for _, dst := range s.pdsts {
		if s.pending[dst] != nil {
			PutRun(s.pending[dst])
			s.pending[dst] = nil
		}
		s.pseen[dst] = false
	}
	s.tags = s.tags[:0]
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
			// Reuse a pooled sender's cleared buffer array for the new tag.
			s.tags = s.tags[:i+1]
			s.tags[i].tag = tag
		} else {
			s.tags = append(s.tags, tagBufs{tag: tag})
		}
	}
	s.curTag, s.curIdx, s.cur = tag, i, s.tags[i].bufs
}

// buffer returns the packet under construction for stream (dst, tag),
// creating (and recording in first-write order) an empty one if needed.
func (s *Sender) buffer(dst, tag int) *Batch {
	if tag != s.curTag {
		s.selectTag(tag)
	}
	if dst >= len(s.cur) {
		grown := make([]*Batch, dst+1)
		copy(grown, s.cur)
		s.cur = grown
		s.tags[s.curIdx].bufs = grown
	}
	b := s.cur[dst]
	if b == nil {
		b = GetBatch()
		b.Src, b.Dst, b.Local, b.Tag = s.src, dst, s.local(dst), tag
		s.cur[dst] = b
		s.order = append(s.order, streamKey{dst, s.curIdx})
	}
	return b
}

// Send routes one tuple (with its precomputed join-attribute hash) to the
// stream (dst, tag), charging the copy into the outgoing packet. The tuple
// is copied immediately; the pointer may target a buffer about to be
// recycled.
func (s *Sender) Send(dst, tag int, t *tuple.Tuple, h uint64) {
	s.a.AddCPU(s.wtNs)
	b := s.buffer(dst, tag)
	if cap(b.Tuples) == 0 {
		b.Tuples = make([]tuple.Tuple, 0, s.capT)
		b.Hashes = make([]uint64, 0, s.capT)
	}
	b.Append(t, h)
	if len(b.Tuples) >= s.capT {
		s.cur[dst] = nil
		s.flush(b)
	}
}

// SendJoined routes one composite result tuple to the stream (dst, tag).
func (s *Sender) SendJoined(dst, tag int, j *tuple.Joined) {
	s.a.AddCPU(s.wtNs)
	b := s.buffer(dst, tag)
	if cap(b.Joined) == 0 {
		b.Joined = make([]tuple.Joined, 0, s.capJ)
	}
	b.Joined = append(b.Joined, *j)
	if len(b.Joined) >= s.capJ {
		s.cur[dst] = nil
		s.flush(b)
	}
}

// SendJoinedPair is SendJoined for a match still held as two halves: the
// composite is assembled directly in the outgoing packet slot, skipping the
// caller-side 2x tuple copy. Charges and flush behaviour are identical to
// SendJoined.
func (s *Sender) SendJoinedPair(dst, tag int, inner, outer *tuple.Tuple) {
	s.a.AddCPU(s.wtNs)
	b := s.buffer(dst, tag)
	if cap(b.Joined) == 0 {
		b.Joined = make([]tuple.Joined, 0, s.capJ)
	}
	n := len(b.Joined)
	b.Joined = b.Joined[:n+1]
	b.Joined[n].Inner = *inner
	b.Joined[n].Outer = *outer
	if len(b.Joined) >= s.capJ {
		s.cur[dst] = nil
		s.flush(b)
	}
}

// flush seals one packet whose stream slot the caller has already cleared:
// it is sequenced, charged (protocol, wire, fault rolls) exactly as a
// packet, tallied, then appended to its destination's delivery run.
// Accounting here is per packet and unchanged by run batching.
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
	for _, k := range s.order {
		bufs := s.tags[k.ti].bufs
		if b := bufs[k.dst]; b != nil {
			bufs[k.dst] = nil
			if b.Len() > 0 {
				s.flush(b)
			} else {
				PutBatch(b)
			}
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
