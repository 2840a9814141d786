// Package cost defines the hardware cost model used to convert event counts
// (tuples scanned, pages read, packets sent, ...) into simulated response
// times for the Gamma shared-nothing machine reproduction.
//
// The model is deliberately simple and completely deterministic: every
// primitive operation the join algorithms perform has a fixed cost in
// nanoseconds, derived from a small set of hardware parameters calibrated to
// the hardware described in Schneider & DeWitt (SIGMOD 1989): VAX 11/750
// processors (~0.6 MIPS), 333 MB Fujitsu disks with 8 KB pages, and an
// 80 Mbit/s token ring with 2 KB network packets.
//
// Response times produced by the simulator are therefore not wall-clock
// measurements; they are exact functions of the work each algorithm performs,
// which is what the paper's relative comparisons depend on.
package cost

import "time"

// Params are the user-tunable hardware parameters. All CPU costs are
// expressed in machine instructions and converted to time using MIPS.
type Params struct {
	// MIPS is the per-processor speed in millions of instructions per
	// second. The VAX 11/750 used by Gamma is commonly rated at 0.6 MIPS.
	MIPS float64

	// PageBytes is the disk page size. The paper uses 8 KB pages.
	PageBytes int
	// PacketBytes is the network packet size. The paper uses 2 KB packets
	// (split tables larger than one packet must be sent in pieces).
	PacketBytes int
	// NetMBps is the network wire speed in megabytes per second
	// (80 Mbit/s ring = 10 MB/s).
	NetMBps float64

	// SeqPageMs is the time to transfer one page sequentially (read-ahead
	// hides most seek activity during sequential scans).
	SeqPageMs SimMs
	// RandPageMs is the time for a random page access (seek + rotational
	// latency + transfer).
	RandPageMs SimMs
	// FileSwitchMs is the short-seek penalty charged when consecutive
	// accesses on one disk touch different files (e.g. round-robin writes
	// into many bucket files).
	FileSwitchMs SimMs

	// Per-tuple CPU costs, in instructions.
	ReadTupleInstr   int64 // fetch next tuple from a page during a scan
	WriteTupleInstr  int64 // copy a tuple into an output page or packet
	HashInstr        int64 // hash the join attribute and index a split table
	InsertInstr      int64 // insert into an in-memory hash table
	ProbeInstr       int64 // initiate a hash-table probe
	ChainInstr       int64 // follow + compare one hash-chain element
	ResultInstr      int64 // build one composite result tuple
	FilterBitInstr   int64 // set or test one bit-filter bit
	SortCompareInstr int64 // one comparison during sorting or merging
	SortMoveInstr    int64 // move one tuple during a sort or merge pass
	HistogramInstr   int64 // update the overflow histogram for one tuple
	PredEvalInstr    int64 // evaluate one compiled predicate node
	AggUpdateInstr   int64 // fold one tuple into an aggregate

	// Adaptation decision costs, in instructions, charged by the dynamic
	// Hybrid join each time it picks a spill victim or a resurrection
	// candidate (scan the partition directory, compare sizes, update the
	// resident set). Decisions are cheap next to the data movement they
	// trigger, but they are real work and must stay on the books.
	SpillDecideInstr     int64
	ResurrectDecideInstr int64

	// Network protocol CPU, in instructions, charged per packet at each
	// end. Local (short-circuited) packets skip the wire and most of the
	// protocol stack but are not free (the paper stresses this).
	PacketProtoInstr      int64
	PacketProtoLocalInstr int64

	// Scheduling overheads.
	ControlMsgInstr int64         // per control message (operator start/done)
	PhaseStartup    time.Duration // flat scheduler latency per operator phase

	// SplitEntryBytes is the wire size of one split-table entry
	// (machine id, port number, and per-entry overflow-function state).
	// 40 bytes makes a 7-bucket x 8-disk table exceed one 2 KB packet,
	// reproducing the upturn the paper observes when memory is most scarce.
	SplitEntryBytes int

	// FilterOverheadBitsPerSite is packet overhead subtracted per joining
	// site when carving one shared 2 KB packet into per-site bit filters.
	// 75 bits/site yields the paper's 1973 bits/site with 8 join sites.
	FilterOverheadBitsPerSite int

	// HeartbeatMs is the failure-detection heartbeat period: every site is
	// expected to report to the scheduler once per period, so a dead site
	// is only *suspected* at the next heartbeat boundary after it stops.
	HeartbeatMs SimMs
	// HeartbeatMisses is how many consecutive missed heartbeats the
	// scheduler tolerates before declaring a site dead (guards against
	// declaring a merely-slow site failed).
	HeartbeatMisses int
}

// DefaultParams returns the Gamma-calibrated parameter set.
func DefaultParams() Params {
	return Params{
		MIPS:        0.60,
		PageBytes:   8192,
		PacketBytes: 2048,
		NetMBps:     10.0,

		SeqPageMs:    5.0,
		RandPageMs:   30.0,
		FileSwitchMs: 8.0,

		ReadTupleInstr:   500,
		WriteTupleInstr:  400,
		HashInstr:        100,
		InsertInstr:      200,
		ProbeInstr:       250,
		ChainInstr:       60,
		ResultInstr:      500,
		FilterBitInstr:   40,
		SortCompareInstr: 80,
		SortMoveInstr:    150,
		HistogramInstr:   30,
		PredEvalInstr:    60,
		AggUpdateInstr:   80,

		SpillDecideInstr:     300,
		ResurrectDecideInstr: 300,

		PacketProtoInstr:      10000,
		PacketProtoLocalInstr: 2000,

		ControlMsgInstr: 6000,
		PhaseStartup:    30 * time.Millisecond,

		SplitEntryBytes:           40,
		FilterOverheadBitsPerSite: 75,

		HeartbeatMs:     250,
		HeartbeatMisses: 2,
	}
}

// Model holds precomputed per-operation costs in simulated nanoseconds.
type Model struct {
	P Params

	ReadTuple   SimNs
	WriteTuple  SimNs
	Hash        SimNs
	Insert      SimNs
	Probe       SimNs
	Chain       SimNs
	Result      SimNs
	FilterBit   SimNs
	SortCompare SimNs
	SortMove    SimNs
	Histogram   SimNs
	PredEval    SimNs
	AggUpdate   SimNs

	SpillDecide     SimNs // pick one spill victim (dynamic Hybrid)
	ResurrectDecide SimNs // pick one resurrection candidate (dynamic Hybrid)

	PacketProto      SimNs // per packet, each end, remote
	PacketProtoLocal SimNs // per packet, each end, short-circuited
	PacketWire       SimNs // per packet on the ring
	ControlMsg       SimNs
	PhaseStartup     SimNs

	SeqPage    SimNs
	RandPage   SimNs
	FileSwitch SimNs

	Heartbeat       SimNs // failure-detection heartbeat period
	HeartbeatMisses int   // missed heartbeats tolerated before declaring death
}

// NewModel precomputes nanosecond costs from params.
func NewModel(p Params) *Model {
	instr := func(n int64) SimNs {
		// 1 instruction = 1000/MIPS nanoseconds.
		return SimNs(float64(n) * 1000.0 / p.MIPS)
	}
	return &Model{
		P:           p,
		ReadTuple:   instr(p.ReadTupleInstr),
		WriteTuple:  instr(p.WriteTupleInstr),
		Hash:        instr(p.HashInstr),
		Insert:      instr(p.InsertInstr),
		Probe:       instr(p.ProbeInstr),
		Chain:       instr(p.ChainInstr),
		Result:      instr(p.ResultInstr),
		FilterBit:   instr(p.FilterBitInstr),
		SortCompare: instr(p.SortCompareInstr),
		SortMove:    instr(p.SortMoveInstr),
		Histogram:   instr(p.HistogramInstr),
		PredEval:    instr(p.PredEvalInstr),
		AggUpdate:   instr(p.AggUpdateInstr),

		SpillDecide:     instr(p.SpillDecideInstr),
		ResurrectDecide: instr(p.ResurrectDecideInstr),

		PacketProto:      instr(p.PacketProtoInstr),
		PacketProtoLocal: instr(p.PacketProtoLocalInstr),
		PacketWire:       SimNs(float64(p.PacketBytes) / (p.NetMBps * 1e6) * 1e9),
		ControlMsg:       instr(p.ControlMsgInstr),
		PhaseStartup:     DurNs(p.PhaseStartup),

		SeqPage:    p.SeqPageMs.Ns(),
		RandPage:   p.RandPageMs.Ns(),
		FileSwitch: p.FileSwitchMs.Ns(),

		Heartbeat:       p.HeartbeatMs.Ns(),
		HeartbeatMisses: p.HeartbeatMisses,
	}
}

// Default returns a model with the Gamma-calibrated defaults.
func Default() *Model { return NewModel(DefaultParams()) }

// Acct accumulates resource usage for one goroutine during one operator
// phase. It is not safe for concurrent use; each worker goroutine owns its
// own Acct and the phase merges them when it ends.
type Acct struct {
	CPU  SimNs // simulated processor time
	Disk SimNs // simulated disk-arm time
	Net  SimNs // simulated network-interface time

	// Events are annotations (fault retries, retransmissions, memory
	// pressure) recorded by Note. They never charge time; internal/trace
	// surfaces them as span events. Nil on fault-free runs.
	Events []Ev
}

// Ev is one annotated event on an account, stamped with the account's
// elapsed simulated time at the moment it was recorded.
type Ev struct {
	Kind   string // dotted event name, e.g. "disk.retry"
	Detail int64  // event-specific payload (file id, evicted tuples, ...)
	At     SimNs  // offset into the account's elapsed time
}

// Note records an event at the account's current elapsed offset. Notes are
// observability-only: they never charge time, so a run with and without
// readers of the events produces identical response times.
func (a *Acct) Note(kind string, detail int64) {
	a.Events = append(a.Events, Ev{Kind: kind, Detail: detail, At: a.Elapsed()})
}

// AddCPU charges simulated CPU time.
func (a *Acct) AddCPU(ns SimNs) { a.CPU += ns }

// AddDisk charges simulated disk time.
func (a *Acct) AddDisk(ns SimNs) { a.Disk += ns }

// AddNet charges simulated network-interface time.
func (a *Acct) AddNet(ns SimNs) { a.Net += ns }

// Merge adds b's resource times into a. Events stay on the account that
// noted them: a merged account is a resource total.
func (a *Acct) Merge(b Acct) {
	a.CPU += b.CPU
	a.Disk += b.Disk
	a.Net += b.Net
}

// Elapsed is the wall time this account represents assuming perfect overlap
// of CPU, disk (read-ahead / write-behind) and network DMA: the maximum of
// the three resource times.
func (a Acct) Elapsed() SimNs {
	e := a.CPU
	if a.Disk > e {
		e = a.Disk
	}
	if a.Net > e {
		e = a.Net
	}
	return e
}

// TuplesPerPacket reports how many fixed-size tuples fit in one network
// packet (at least 1).
func (m *Model) TuplesPerPacket(tupleBytes int) int {
	n := m.P.PacketBytes / tupleBytes
	if n < 1 {
		n = 1
	}
	return n
}

// TuplesPerPage reports how many fixed-size tuples fit on one disk page
// (at least 1).
func (m *Model) TuplesPerPage(tupleBytes int) int {
	n := m.P.PageBytes / tupleBytes
	if n < 1 {
		n = 1
	}
	return n
}

// RepartitionPassNs estimates the simulated cost of pushing `bytes` of
// tuple data through one extra bucket-forming round trip: every tuple is
// hashed and copied into an output page, the pages are written sequentially,
// and later read back and re-scanned. The workload engine's shrink-to-fit
// admission policy (internal/sched) uses this as the paper's
// partition-overflow price: Hybrid running with k buckets instead of one
// spills (k-1)/k of both relations through exactly this pass (Section 3.4),
// so a shrunken memory grant is worth taking only when this cost is below
// the expected queueing delay for a full grant.
func (m *Model) RepartitionPassNs(bytes Bytes, tupleBytes int) SimNs {
	if bytes <= 0 {
		return 0
	}
	pageB := int64(m.P.PageBytes)
	pages := Pages((int64(bytes) + pageB - 1) / pageB)
	tuples := Tuples(int64(bytes) / int64(tupleBytes))
	cpu := ScaleNs(tuples, m.Hash+m.WriteTuple+m.ReadTuple)
	io := ScaleNs(pages, 2*m.SeqPage) // write the pass out, read it back
	return cpu + io
}

// SplitTablePackets reports how many network packets are needed to ship a
// split table with the given number of entries to one operator process.
func (m *Model) SplitTablePackets(entries int) int {
	bytes := entries * m.P.SplitEntryBytes
	pkts := (bytes + m.P.PacketBytes - 1) / m.P.PacketBytes
	if pkts < 1 {
		pkts = 1
	}
	return pkts
}
