package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/fault"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// sendOp is one send of a schedule: a plain tuple or a joined pair to the
// stream (dst, tag), or a FlushAll barrier.
type sendOp struct {
	dst, tag int
	joined   bool
	flush    bool
	v        int32
}

// sendSchedule returns n sends over dsts destinations and the given tags,
// in the operators' shapes: most sends plain, every 13th a
// joined pair on a tag of its own (a stream carries one kind), runs of one
// tag broken by per-tuple tag switches, and FlushAll barriers at the given
// op indices.
func sendSchedule(n, dsts int, tags []int, joinedTag int, seed uint64, flushAt ...int) []sendOp {
	src := xrand.New(seed)
	var ops []sendOp
	for i := 0; i < n; i++ {
		for _, f := range flushAt {
			if f == i {
				ops = append(ops, sendOp{flush: true})
			}
		}
		op := sendOp{dst: src.Intn(dsts), tag: tags[src.Intn(len(tags))], v: int32(i)}
		if i%64 < 20 {
			op.tag = tags[(i/64)%len(tags)]
		}
		if i%13 == 0 {
			op.tag, op.joined = joinedTag, true
		}
		ops = append(ops, op)
	}
	return ops
}

// sentPacket is one delivered packet, flattened for comparison.
type sentPacket struct {
	Src, Dst, Tag int
	Seq           int64
	Local         bool
	Dups          int
	Vals          []int32
	Hashes        []uint64
	Joined        []int32 // inner then outer Unique1 of each joined tuple
}

// sendOutcome is everything a schedule's sender produced: its packets in
// delivery order, its account and the network's counters.
type sendOutcome struct {
	Packets  []sentPacket
	Acct     cost.Acct
	Counters Counters
}

// sendMode says how a schedule's sends reach the sender.
type sendMode int

const (
	byTag    sendMode = iota // Send on every plain tuple; Stream, then SendJoinedTo, on every joined one
	byHandle                 // handles resolved once into a StreamCache, then SendTo / SendJoinedTo
	mixed                    // alternating: even ops by tag, odd ops by handle
	perTuple                 // Stream resolved afresh on every tuple, then SendTo / SendJoinedTo
	nSendModes
)

func (m sendMode) String() string {
	return [...]string{"by tag", "by handle", "mixed", "per-tuple handle"}[m]
}

// runSchedule drives one sender from site 0 through the schedule in the
// given mode and returns what it delivered. Handles resolved before a
// FlushAll are reused after it. With faults, remote packets roll drops and
// duplicates on their (src, dst, tag, seq) coordinates.
func runSchedule(t *testing.T, ops []sendOp, tags []int, joinedTag, dsts, runLen int, faults bool, mode sendMode) sendOutcome {
	t.Helper()
	net := New(cost.Default())
	net.SetRunLength(runLen)
	if faults {
		net.SetFaults(fault.NewRegistry(fault.Spec{Seed: 5, NetDropRate: 0.1, NetDupRate: 0.1}))
	}
	var out sendOutcome
	deliver := func(dst int, run []*Batch) {
		for _, b := range run {
			p := sentPacket{Src: b.Src, Dst: b.Dst, Tag: b.Tag, Seq: b.Seq, Local: b.Local, Dups: b.Dups}
			for i := range b.Tuples {
				p.Vals = append(p.Vals, b.Tuples[i].Int(tuple.Unique1))
				p.Hashes = append(p.Hashes, b.Hashes[i])
			}
			for i := range b.Joined {
				p.Joined = append(p.Joined, b.Joined[i].Inner.Int(tuple.Unique1), b.Joined[i].Outer.Int(tuple.Unique1))
			}
			if b.Dst != dst {
				t.Fatalf("run for dst %d holds a packet for %d", dst, b.Dst)
			}
			out.Packets = append(out.Packets, p)
		}
		PutBatches(run)
		PutRun(run)
	}
	s := net.NewSender(&out.Acct, 0, deliver)
	slot := func(dst, tag int) int {
		for i, tg := range tags {
			if tg == tag {
				return dst*(len(tags)+1) + i
			}
		}
		return dst*(len(tags)+1) + len(tags) // the joined tag
	}
	cache := s.StreamCache(dsts * (len(tags) + 1))
	for i, op := range ops {
		if op.flush {
			s.FlushAll()
			continue
		}
		tp := mkTuple(op.v)
		other := mkTuple(-op.v)
		h := uint64(op.v) * 0x9E3779B97F4A7C15
		if mode == byTag || mode == mixed && i%2 == 0 {
			if op.joined {
				s.SendJoinedTo(s.Stream(op.dst, op.tag), &tp, &other)
			} else {
				s.Send(op.dst, op.tag, &tp, h)
			}
			continue
		}
		var st *Stream
		if mode == perTuple {
			st = s.Stream(op.dst, op.tag)
		} else {
			k := slot(op.dst, op.tag)
			if cache[k] == nil {
				cache[k] = s.Stream(op.dst, op.tag)
			}
			st = cache[k]
		}
		if op.joined {
			s.SendJoinedTo(st, &tp, &other)
		} else {
			s.SendTo(st, &tp, h)
		}
	}
	s.FlushAll()
	out.Counters = net.Counters()
	s.Release()
	return out
}

// TestStreamHandlesMatchSend: a sender driven through stream handles —
// alone, mixed with Send on alternate tuples, resolved afresh per tuple,
// and reused across FlushAll barriers — delivers the same packets (source,
// destination, tag, sequence number, short-circuit flag, duplicates,
// payload), in the same order, with the same charges and counters, as the
// same schedule sent by (dst, tag). Delivery order at run length 1 is seal
// order, so it also pins FlushAll's first-write order.
func TestStreamHandlesMatchSend(t *testing.T) {
	tags := []int{-1, 0, 3, 1<<20 + 2, 1<<21 + 5}
	const joinedTag, dsts = -2, 6
	for _, runLen := range []int{1, 4, 32} {
		for _, faults := range []bool{false, true} {
			ops := sendSchedule(3000, dsts, tags, joinedTag, 11, 700, 701, 2200)
			want := runSchedule(t, ops, tags, joinedTag, dsts, runLen, faults, byTag)
			if len(want.Packets) < 300 {
				t.Fatalf("schedule delivered only %d packets", len(want.Packets))
			}
			for mode := byHandle; mode < nSendModes; mode++ {
				got := runSchedule(t, ops, tags, joinedTag, dsts, runLen, faults, mode)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run length %d, faults %v, %v: %s", runLen, faults, mode, firstDifference(got, want))
				}
			}
		}
	}
}

// TestPooledSenderHandlesAfterRelease drives a sender through one set of
// tags, releases it, and drives the next sender the pool hands out (in
// practice the same object, with its handles, tag directory and caches)
// through other tags and more destinations by handle: it must deliver
// exactly what a sender sending the second schedule by tag delivers.
func TestPooledSenderHandlesAfterRelease(t *testing.T) {
	first := []int{4, 5, 6}
	second := []int{-1, 7, 1 << 20}
	const joinedTag = -2
	for _, runLen := range []int{1, 8} {
		runSchedule(t, sendSchedule(1000, 3, first, 9, 21, 400), first, 9, 3, runLen, false, byHandle)
		ops := sendSchedule(2000, 9, second, joinedTag, 22, 900)
		want := runSchedule(t, ops, second, joinedTag, 9, runLen, true, byTag)
		runSchedule(t, sendSchedule(500, 2, first, 9, 23), first, 9, 2, runLen, false, mixed)
		got := runSchedule(t, ops, second, joinedTag, 9, runLen, true, byHandle)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run length %d: reused sender by handle: %s", runLen, firstDifference(got, want))
		}
	}
}

// firstDifference describes where two outcomes first differ.
func firstDifference(got, want sendOutcome) string {
	if !reflect.DeepEqual(got.Acct, want.Acct) {
		return fmt.Sprintf("account %+v, want %+v", got.Acct, want.Acct)
	}
	if got.Counters != want.Counters {
		return fmt.Sprintf("counters %+v, want %+v", got.Counters, want.Counters)
	}
	for i := range min(len(got.Packets), len(want.Packets)) {
		if !reflect.DeepEqual(got.Packets[i], want.Packets[i]) {
			return fmt.Sprintf("packet %d = %+v, want %+v", i, got.Packets[i], want.Packets[i])
		}
	}
	return fmt.Sprintf("%d packets, want %d", len(got.Packets), len(want.Packets))
}

// TestStreamResolveIsNotAWrite: resolving handles opens no packet and does
// not enter FlushAll's order; the first send does, once.
func TestStreamResolveIsNotAWrite(t *testing.T) {
	s := New(cost.Default()).NewSender(&cost.Acct{}, 0, recycleInline)
	a, b := s.Stream(1, 0), s.Stream(2, 0)
	if s.Stream(1, 0) != a || a == b {
		t.Fatal("Stream must return one stable handle per (dst, tag)")
	}
	if len(s.order) != 0 || a.pkt != nil {
		t.Fatalf("resolving opened a packet or listed a stream: %d listed", len(s.order))
	}
	tp := mkTuple(1)
	s.SendTo(b, &tp, 1)
	s.SendTo(b, &tp, 1)
	if len(s.order) != 1 || s.order[0] != b {
		t.Fatalf("order after two sends to one stream: %d entries", len(s.order))
	}
	s.FlushAll()
	s.Release()
}
