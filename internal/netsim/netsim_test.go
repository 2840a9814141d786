package netsim

import (
	"sort"
	"testing"
	"testing/quick"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

func mkTuple(v int32) tuple.Tuple {
	var t tuple.Tuple
	t.SetInt(tuple.Unique1, v)
	return t
}

// collectInto returns a deliver callback that flattens runs into *got,
// preserving delivery order.
func collectInto(got *[]*Batch) func(int, []*Batch) {
	return func(dst int, run []*Batch) { *got = append(*got, run...) }
}

func TestPacketBatching(t *testing.T) {
	m := cost.Default()
	n := New(m)
	n.SetRunLength(1) // serial mode: every packet delivered at flush time
	var a cost.Acct
	var got []*Batch
	s := n.NewSender(&a, 0, collectInto(&got))
	// 9 tuples per 2KB packet; send 20 to a remote site -> 2 full + 1 partial.
	for i := 0; i < 20; i++ {
		tp := mkTuple(int32(i))
		s.Send(3, 0, &tp, uint64(i))
	}
	if len(got) != 2 {
		t.Fatalf("full packets delivered = %d, want 2", len(got))
	}
	s.FlushAll()
	if len(got) != 3 {
		t.Fatalf("packets after flush = %d, want 3", len(got))
	}
	total := 0
	for _, b := range got {
		total += b.Len()
		if b.Src != 0 || b.Dst != 3 || b.Local {
			t.Fatalf("bad batch meta %+v", b)
		}
		if len(b.Hashes) != len(b.Tuples) {
			t.Fatal("hashes not carried")
		}
	}
	if total != 20 {
		t.Fatalf("tuples delivered = %d", total)
	}
	c := n.Counters()
	if c.PacketsRemote != 3 || c.PacketsLocal != 0 || c.TuplesRemote != 20 {
		t.Fatalf("counters = %+v", c)
	}
	if c.BytesOnWire != 3*2048 {
		t.Fatalf("BytesOnWire = %d", c.BytesOnWire)
	}
}

func TestRunLengthClamp(t *testing.T) {
	n := New(cost.Default())
	if n.RunLength() != DefaultRunLength {
		t.Fatalf("default run length = %d", n.RunLength())
	}
	n.SetRunLength(0)
	if n.RunLength() != 1 {
		t.Fatalf("run length not clamped: %d", n.RunLength())
	}
}

// TestRunDelivery exercises the batched transport: full packets accumulate
// into per-destination runs and are handed over runLen at a time, with the
// leftovers delivered at FlushAll. The packets themselves — and everything
// charged for them — are identical to serial mode.
func TestRunDelivery(t *testing.T) {
	m := cost.Default()
	n := New(m)
	n.SetRunLength(2)
	var a cost.Acct
	var runs [][]*Batch
	s := n.NewSender(&a, 0, func(dst int, run []*Batch) {
		runs = append(runs, append([]*Batch(nil), run...))
	})
	// 3 full packets to one destination: one run of 2 mid-stream, the third
	// (plus the partial) only at FlushAll.
	for i := 0; i < 30; i++ {
		tp := mkTuple(int32(i))
		s.Send(3, 0, &tp, uint64(i))
	}
	if len(runs) != 1 || len(runs[0]) != 2 {
		t.Fatalf("mid-stream runs = %d (first len %d), want 1 run of 2", len(runs), len(runs[0]))
	}
	s.FlushAll()
	total, prevSeq := 0, int64(0)
	for _, run := range runs {
		for _, b := range run {
			total += b.Len()
			if b.Seq <= prevSeq {
				t.Fatalf("seq not increasing: %d after %d", b.Seq, prevSeq)
			}
			prevSeq = b.Seq
		}
	}
	if total != 30 {
		t.Fatalf("tuples delivered = %d", total)
	}
	c := n.Counters()
	if c.PacketsRemote != 4 {
		t.Fatalf("packets = %+v", c)
	}
}

func TestShortCircuit(t *testing.T) {
	m := cost.Default()
	n := New(m)
	var a cost.Acct
	s := n.NewSender(&a, 5, func(int, []*Batch) {})
	for i := 0; i < 9; i++ {
		tp := mkTuple(int32(i))
		s.Send(5, 0, &tp, 0)
	}
	// Senders publish their tallies at FlushAll, the end-of-stream barrier.
	if c := n.Counters(); c != (Counters{}) {
		t.Fatalf("counters published before FlushAll: %+v", c)
	}
	s.FlushAll()
	c := n.Counters()
	if c.PacketsLocal != 1 || c.PacketsRemote != 0 || c.TuplesLocal != 9 {
		t.Fatalf("counters = %+v", c)
	}
	if a.Net != 0 {
		t.Fatal("short-circuited packet charged wire time")
	}
	// Protocol cost is charged even locally (the paper insists).
	if a.CPU < m.PacketProtoLocal {
		t.Fatal("local packet did not charge protocol CPU")
	}
}

func TestRemoteCostsMoreThanLocal(t *testing.T) {
	m := cost.Default()
	n := New(m)
	var local, remote cost.Acct
	sl := n.NewSender(&local, 1, func(int, []*Batch) {})
	sr := n.NewSender(&remote, 1, func(int, []*Batch) {})
	for i := 0; i < 9; i++ {
		tl, tr := mkTuple(0), mkTuple(0)
		sl.Send(1, 0, &tl, 0)
		sr.Send(2, 0, &tr, 0)
	}
	if remote.CPU <= local.CPU {
		t.Fatal("remote protocol CPU should exceed local")
	}
	if remote.Net == 0 {
		t.Fatal("remote packet must use the wire")
	}
}

func TestJoinedBatching(t *testing.T) {
	m := cost.Default()
	n := New(m)
	n.SetRunLength(1)
	var a cost.Acct
	var got []*Batch
	s := n.NewSender(&a, 0, collectInto(&got))
	// 416-byte result tuples: 4 per packet.
	var half tuple.Tuple
	for i := 0; i < 4; i++ {
		s.SendJoinedTo(s.Stream(1, 0), &half, &half)
	}
	if len(got) != 1 || got[0].Len() != 4 {
		t.Fatalf("joined batching wrong: %d batches", len(got))
	}
}

func TestStreamsSeparateByTag(t *testing.T) {
	n := New(cost.Default())
	var a cost.Acct
	var got []*Batch
	s := n.NewSender(&a, 0, collectInto(&got))
	t1, t2 := mkTuple(1), mkTuple(2)
	s.Send(1, 7, &t1, 0)
	s.Send(1, 8, &t2, 0)
	s.FlushAll()
	if len(got) != 2 {
		t.Fatalf("tagged streams merged: %d batches", len(got))
	}
	tags := map[int]bool{got[0].Tag: true, got[1].Tag: true}
	if !tags[7] || !tags[8] {
		t.Fatalf("tags = %v", tags)
	}
}

// TestOrderListsEachStreamOnce checks that FlushAll's first-write order
// holds one entry per stream, however many packets the stream opened, and
// that a stream written again after FlushAll is listed again.
func TestOrderListsEachStreamOnce(t *testing.T) {
	n := New(cost.Default())
	var a cost.Acct
	var got []*Batch
	s := n.NewSender(&a, 0, collectInto(&got))
	streams := map[[2]int]bool{}
	src := xrand.New(3)
	for i := 0; i < 1000; i++ {
		dst, tag := src.Intn(5), 7+src.Intn(3)
		streams[[2]int{dst, tag}] = true
		tp := mkTuple(int32(i))
		s.Send(dst, tag, &tp, uint64(i))
	}
	if len(s.order) != len(streams) {
		t.Fatalf("order has %d entries for %d streams", len(s.order), len(streams))
	}
	s.FlushAll()
	if len(s.order) != 0 {
		t.Fatalf("order not cleared by FlushAll: %d entries", len(s.order))
	}
	tp := mkTuple(1000)
	s.Send(0, 7, &tp, 1000)
	if len(s.order) != 1 {
		t.Fatalf("stream written after FlushAll listed %d times, want 1", len(s.order))
	}
	s.FlushAll()
	total := 0
	for _, b := range got {
		total += b.Len()
	}
	if total != 1001 {
		t.Fatalf("delivered %d tuples, want 1001", total)
	}
	s.Release()
}

func TestRecvCharges(t *testing.T) {
	m := cost.Default()
	n := New(m)
	var a cost.Acct
	n.Recv(&a, &Batch{Local: true})
	if a.CPU != m.PacketProtoLocal {
		t.Fatalf("local recv CPU = %d", a.CPU)
	}
	var b cost.Acct
	n.Recv(&b, &Batch{Local: false})
	if b.CPU != m.PacketProto {
		t.Fatalf("remote recv CPU = %d", b.CPU)
	}
}

func TestCountersSubAndLocalFraction(t *testing.T) {
	a := Counters{PacketsLocal: 5, PacketsRemote: 10, TuplesLocal: 30, TuplesRemote: 90, BytesOnWire: 1000}
	b := Counters{PacketsLocal: 1, PacketsRemote: 2, TuplesLocal: 10, TuplesRemote: 50, BytesOnWire: 200}
	d := a.Sub(b)
	if d.TuplesLocal != 20 || d.TuplesRemote != 40 || d.BytesOnWire != 800 {
		t.Fatalf("Sub = %+v", d)
	}
	if f := d.LocalFraction(); f < 0.33 || f > 0.34 {
		t.Fatalf("LocalFraction = %v", f)
	}
	if (Counters{}).LocalFraction() != 0 {
		t.Fatal("empty counters LocalFraction should be 0")
	}
}

func TestConservationProperty(t *testing.T) {
	// Everything sent is delivered exactly once, regardless of stream
	// fan-out, and sequence numbers are strictly increasing per sender
	// (serial mode; run mode covers ordering in TestSerialRunEquivalence).
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%800 + 1
		net := New(cost.Default())
		net.SetRunLength(1)
		var a cost.Acct
		got := map[int]int{}
		var lastSeq int64
		seqOK := true
		s := net.NewSender(&a, 3, func(dst int, run []*Batch) {
			for _, b := range run {
				got[dst] += b.Len()
				if b.Seq <= lastSeq {
					seqOK = false
				}
				lastSeq = b.Seq
			}
		})
		src := xrand.New(seed)
		want := map[int]int{}
		for i := 0; i < n; i++ {
			dst := src.Intn(5)
			tag := src.Intn(3)
			tp := mkTuple(int32(i))
			s.Send(dst, tag, &tp, uint64(i))
			want[dst]++
		}
		s.FlushAll()
		for dst, w := range want {
			if got[dst] != w {
				return false
			}
		}
		c := net.Counters()
		return seqOK && c.TuplesLocal+c.TuplesRemote == cost.Tuples(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// batchKey summarizes a delivered packet for cross-mode comparison.
type batchKey struct {
	dst, tag   int
	seq        int64
	n          int
	firstTuple int32
}

func summarize(bs []*Batch) []batchKey {
	keys := make([]batchKey, 0, len(bs))
	for _, b := range bs {
		k := batchKey{dst: b.Dst, tag: b.Tag, seq: b.Seq, n: b.Len()}
		if len(b.Tuples) > 0 {
			k.firstTuple = b.Tuples[0].Int(tuple.Unique1)
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].seq < keys[j].seq })
	return keys
}

// TestSerialRunEquivalence is the transport half of the engine's
// equivalence matrix: an identical send schedule must produce identical
// packets (same seq, dst, tag, contents), identical charges, and identical
// counters at every run length.
func TestSerialRunEquivalence(t *testing.T) {
	run := func(runLen int) ([]batchKey, cost.Acct, Counters) {
		net := New(cost.Default())
		net.SetRunLength(runLen)
		var a cost.Acct
		var got []*Batch
		s := net.NewSender(&a, 2, func(dst int, run []*Batch) { got = append(got, run...) })
		src := xrand.New(42)
		for i := 0; i < 500; i++ {
			dst := src.Intn(6)
			tag := src.Intn(4)
			if i%17 == 0 {
				var half tuple.Tuple
				s.SendJoinedTo(s.Stream(dst, 99), &half, &half)
				continue
			}
			tp := mkTuple(int32(i))
			s.Send(dst, tag, &tp, uint64(i))
		}
		s.FlushAll()
		return summarize(got), a, net.Counters()
	}
	wantKeys, wantAcct, wantCtr := run(1)
	for _, rl := range []int{2, 8, 32} {
		keys, acct, ctr := run(rl)
		if len(keys) != len(wantKeys) {
			t.Fatalf("runLen %d: %d packets, want %d", rl, len(keys), len(wantKeys))
		}
		for i := range keys {
			if keys[i] != wantKeys[i] {
				t.Fatalf("runLen %d: packet %d = %+v, want %+v", rl, i, keys[i], wantKeys[i])
			}
		}
		if acct.CPU != wantAcct.CPU || acct.Net != wantAcct.Net || acct.Disk != wantAcct.Disk {
			t.Fatalf("runLen %d: acct %+v, want %+v", rl, acct, wantAcct)
		}
		if ctr != wantCtr {
			t.Fatalf("runLen %d: counters %+v, want %+v", rl, ctr, wantCtr)
		}
	}
}
