package netsim

import (
	"runtime"
	"sync"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// recycleInline is a delivery callback that hands every packet back as soon
// as it arrives, the way a consumer that finished with it would.
func recycleInline(_ int, run []*Batch) {
	PutBatches(run)
	PutRun(run)
}

// slabsTouched returns the distinct slabs the packets were carved from.
func slabsTouched(pkts []*Batch) map[*slab]bool {
	m := map[*slab]bool{}
	for _, b := range pkts {
		m[b.slab] = true
	}
	return m
}

// TestSlabHeldPacketKeepsPayload holds one packet back from PutBatch while
// other senders carve and recycle many slabs: the held packet pins its slab,
// so its payload must survive untouched.
func TestSlabHeldPacketKeepsPayload(t *testing.T) {
	base := slabsOut.Load()
	net := New(cost.Default())
	net.SetRunLength(1)
	var a cost.Acct
	var pkts []*Batch
	s := net.NewSender(&a, 0, collectInto(&pkts))
	for i := 0; i < 100; i++ {
		tp := mkTuple(int32(i))
		s.Send(2, 0, &tp, uint64(i)*7)
	}
	s.FlushAll()
	s.Release()

	held := pkts[3]
	wantVals := make([]int32, held.Len())
	wantHashes := append([]uint64(nil), held.Hashes...)
	for i := range held.Tuples {
		wantVals[i] = held.Tuples[i].Int(tuple.Unique1)
	}
	wantSeq := held.Seq
	for _, b := range pkts {
		if b != held {
			PutBatch(b)
		}
	}
	if got := slabsOut.Load() - base; got != 1 {
		t.Fatalf("%d slabs out while one packet is held, want 1", got)
	}

	// Churn: every packet these senders carve goes straight back, so their
	// slabs are recycled and re-carved many times over.
	for k := 0; k < 20; k++ {
		c := net.NewSender(&a, k%4, recycleInline)
		for i := 0; i < 3*slabPackets*c.capT; i++ {
			tp := mkTuple(int32(-1 - i))
			c.Send(i%5, i%3, &tp, ^uint64(i))
		}
		c.FlushAll()
		c.Release()
	}

	if held.Seq != wantSeq || held.Src != 0 || held.Dst != 2 || held.Len() != len(wantVals) {
		t.Fatalf("held packet header changed: %+v", held)
	}
	for i := range held.Tuples {
		if v := held.Tuples[i].Int(tuple.Unique1); v != wantVals[i] || held.Hashes[i] != wantHashes[i] {
			t.Fatalf("held packet tuple %d = (%d, %d), want (%d, %d)", i, v, held.Hashes[i], wantVals[i], wantHashes[i])
		}
	}
	PutBatch(held)
	if got := slabsOut.Load() - base; got != 0 {
		t.Fatalf("%d slabs still out after the held packet was put back", got)
	}
}

// TestSlabConcurrentPutsRecycleOnce puts the packets of one slab back from
// several goroutines in shuffled order. When the sender still holds the
// slab, its Release runs before, during or after the puts: whatever the
// interleaving, the slab must be recycled exactly once.
func TestSlabConcurrentPutsRecycleOnce(t *testing.T) {
	for _, carved := range []int{slabPackets, slabPackets / 2} {
		for _, release := range []string{"before", "during", "after"} {
			base := slabsOut.Load()
			net := New(cost.Default())
			net.SetRunLength(1)
			var a cost.Acct
			var pkts []*Batch
			s := net.NewSender(&a, 0, collectInto(&pkts))
			for i := 0; i < carved*s.capT; i++ {
				tp := mkTuple(int32(i))
				s.Send(1, 0, &tp, uint64(i))
			}
			if len(pkts) != carved || len(slabsTouched(pkts)) != 1 {
				t.Fatalf("carved %d packets from %d slabs, want %d from 1", len(pkts), len(slabsTouched(pkts)), carved)
			}
			sl := pkts[0].slab

			src := xrand.New(uint64(carved))
			for i := len(pkts) - 1; i > 0; i-- {
				j := src.Intn(i + 1)
				pkts[i], pkts[j] = pkts[j], pkts[i]
			}
			if release == "before" {
				s.Release()
			}
			const putters = 4
			var wg sync.WaitGroup
			for g := 0; g < putters; g++ {
				wg.Add(1)
				go func(share []*Batch) {
					defer wg.Done()
					for _, b := range share {
						PutBatch(b)
					}
				}(pkts[g*len(pkts)/putters : (g+1)*len(pkts)/putters])
			}
			if release == "during" {
				s.Release()
			}
			wg.Wait()
			if release == "after" {
				s.Release()
			}

			if got := slabsOut.Load() - base; got != 0 {
				t.Fatalf("carved %d, release %s the puts: slabs out changed by %d, want 0", carved, release, got)
			}
			if r := sl.refs.Load(); r != 0 {
				t.Fatalf("carved %d, release %s the puts: recycled slab has %d references", carved, release, r)
			}
		}
	}
}

// TestSlabHandBuiltBatchPut checks that handing back a batch no sender
// carved (as consumer tests build them) touches no slab.
func TestSlabHandBuiltBatchPut(t *testing.T) {
	base := slabsOut.Load()
	b := &Batch{Batch: tuple.Batch{Tuples: make([]tuple.Tuple, 5)}}
	PutBatch(b)
	PutBatch(nil)
	PutBatches([]*Batch{b, {}})
	if len(b.Tuples) != 5 || b.slab != nil {
		t.Fatalf("hand-built batch changed by PutBatch: %+v", b)
	}
	if got := slabsOut.Load() - base; got != 0 {
		t.Fatalf("PutBatch of hand-built batches moved slabs out by %d", got)
	}
}

// TestSlabReleaseWithoutFlushAll: Release without FlushAll must return
// every slab the sender touched, including those of its partial packets and
// of full packets still waiting in delivery runs.
func TestSlabReleaseWithoutFlushAll(t *testing.T) {
	base := slabsOut.Load()
	net := New(cost.Default())
	net.SetRunLength(4)
	var a cost.Acct
	var delivered []*Batch
	s := net.NewSender(&a, 0, func(_ int, run []*Batch) {
		delivered = append(delivered, run...)
		PutRun(run)
	})
	src := xrand.New(7)
	for i := 0; i < 3000; i++ {
		tp := mkTuple(int32(i))
		s.Send(src.Intn(6), src.Intn(3), &tp, uint64(i))
	}
	pending, partial := 0, 0
	for _, run := range s.pending {
		pending += len(run)
	}
	for _, st := range s.streams[:s.live] {
		if st.pkt != nil {
			partial++
		}
	}
	if pending == 0 || partial == 0 || len(slabsTouched(delivered)) < 2 {
		t.Fatalf("want pending runs, partial packets and several slabs: %d pending, %d partial, %d slabs",
			pending, partial, len(slabsTouched(delivered)))
	}
	s.Release()
	PutBatches(delivered)
	if got := slabsOut.Load() - base; got != 0 {
		t.Fatalf("%d slabs still out after an unflushed sender's Release", got)
	}
}

// TestSlabKindsSeparate sends plain and joined tuples from one sender: each
// kind is carved from a slab of its own that carries only that kind's
// array, SlabsOut counts both, and both come back.
func TestSlabKindsSeparate(t *testing.T) {
	base := slabsOut.Load()
	net := New(cost.Default())
	net.SetRunLength(1)
	var a cost.Acct
	var pkts []*Batch
	s := net.NewSender(&a, 0, collectInto(&pkts))
	var half tuple.Tuple
	for i := 0; i < 3*s.capT; i++ {
		tp := mkTuple(int32(i))
		s.Send(1, 0, &tp, uint64(i))
		s.SendJoinedTo(s.Stream(2, 1), &half, &half)
	}
	s.FlushAll()
	kinds := map[*slab]slabKind{}
	for _, b := range pkts {
		kinds[b.slab] = b.slab.kind
		switch {
		case b.Dst == 1 && (b.slab.kind != plainSlab || b.Joined != nil || len(b.Tuples) == 0):
			t.Fatalf("plain packet carved from a %s slab: %d tuples, joined %v", b.slab.kind, len(b.Tuples), b.Joined != nil)
		case b.Dst == 2 && (b.slab.kind != joinedSlab || b.Tuples != nil || b.Hashes != nil || len(b.Joined) == 0):
			t.Fatalf("joined packet carved from a %s slab: %d joined, tuples %v", b.slab.kind, len(b.Joined), b.Tuples != nil)
		}
	}
	if len(kinds) != 2 {
		t.Fatalf("packets came from %d slabs, want one per kind", len(kinds))
	}
	for sl := range kinds {
		if (sl.kind == plainSlab) != (sl.joined == nil) || (sl.kind == joinedSlab) != (sl.tuples == nil && sl.hashes == nil) {
			t.Fatalf("%s slab carries another kind's array", sl.kind)
		}
	}
	if got := slabsOut.Load() - base; got != 2 {
		t.Fatalf("%d slabs out, want 2 (one per kind)", got)
	}
	s.Release()
	PutBatches(pkts)
	if got := slabsOut.Load() - base; got != 0 {
		t.Fatalf("%d slabs still out after every packet came back", got)
	}
}

// TestSlabKindMismatchPanics sends one kind into a stream whose open packet
// holds the other: the sender panics and names the stream.
func TestSlabKindMismatchPanics(t *testing.T) {
	var half tuple.Tuple
	tp := mkTuple(1)
	plain := func(s *Sender) { s.Send(3, 5, &tp, 1) }
	joined := func(s *Sender) { s.SendJoinedTo(s.Stream(3, 5), &half, &half) }
	for _, tc := range []struct {
		name        string
		open, other func(*Sender)
		want        string
	}{
		{"joined into plain", plain, joined, "netsim: joined send into stream (dst 3, tag 5) whose open packet is plain"},
		{"plain into joined", joined, plain, "netsim: plain send into stream (dst 3, tag 5) whose open packet is joined"},
	} {
		base := slabsOut.Load()
		s := New(cost.Default()).NewSender(&cost.Acct{}, 0, recycleInline)
		tc.open(s)
		got := func() (msg any) {
			defer func() { msg = recover() }()
			tc.other(s)
			return nil
		}()
		if got != tc.want {
			t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
		}
		s.Release()
		if got := slabsOut.Load() - base; got != 0 {
			t.Errorf("%s: %d slabs out after Release", tc.name, got)
		}
	}
}

// TestReleasedSenderAndSlabsOutliveCollections: a released sender, and a
// slab of each kind once its packets came back, stay on their free lists
// through collections, so the next sender and its first slabs are the same
// objects whenever the collector last ran.
func TestReleasedSenderAndSlabsOutliveCollections(t *testing.T) {
	net := New(cost.Default())
	net.SetRunLength(1)
	var a cost.Acct
	var pkts []*Batch
	send := func() (*Sender, [2]*slab) {
		pkts = pkts[:0]
		s := net.NewSender(&a, 0, collectInto(&pkts))
		tp := mkTuple(1)
		s.Send(1, 0, &tp, 1)
		s.SendJoinedTo(s.Stream(2, 1), &tp, &tp)
		s.FlushAll()
		var slabs [2]*slab
		for _, b := range pkts {
			slabs[b.slab.kind] = b.slab
		}
		s.Release()
		PutBatches(pkts)
		return s, slabs
	}
	s, slabs := send()
	runtime.GC()
	runtime.GC()
	s2, slabs2 := send()
	if s2 != s {
		t.Error("a released sender did not survive two collections")
	}
	for k, sl := range slabs {
		if slabs2[k] != sl {
			t.Errorf("a recycled %s slab did not survive two collections", slabKind(k))
		}
	}
}
