package netsim

import (
	"testing"

	"gammajoin/internal/cost"
)

// TestWarmSendToAllocatesNothing: once a sender's handles are resolved and
// its first slabs carved, sending through a handle allocates nothing per
// tuple — packets come from recycled slabs, runs from the run pool, and the
// stream is one cache load away. Slabs, runs and senders sit on free
// lists, which neither a collection nor the race detector empties, so the
// count holds under -race too.
func TestWarmSendToAllocatesNothing(t *testing.T) {
	for _, runLen := range []int{1, 32} {
		net := New(cost.Default())
		net.SetRunLength(runLen)
		var a cost.Acct
		s := net.NewSender(&a, 0, recycleInline)
		cache := s.StreamCache(8)
		for d := range cache {
			cache[d] = s.Stream(d, 1<<20+d)
		}
		half := mkTuple(7)
		store := s.Stream(3, -2)
		send := func() {
			for i := 0; i < 4096; i++ {
				tp := mkTuple(int32(i))
				s.SendTo(cache[i%8], &tp, uint64(i))
				if i%16 == 0 {
					s.SendJoinedTo(store, &tp, &half)
				}
			}
		}
		send() // warm: slabs carved and recycled, runs pooled
		allocs := testing.AllocsPerRun(20, send)
		s.FlushAll()
		s.Release()
		if allocs != 0 {
			t.Errorf("run length %d: a warm loop of 4096 SendTo (and 256 SendJoinedTo) allocated %.1f times", runLen, allocs)
		}
	}
}
