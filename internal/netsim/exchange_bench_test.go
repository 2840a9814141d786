package netsim

import (
	"sync"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
)

// BenchmarkSenderExchange times the host work of one exchange phase: eight
// producers each route a 12,500-tuple fragment through a joining split table
// into per-destination mailboxes, and after the producers' barrier one
// consumer per destination charges the receive and hands the packets back.
// The 100,000 tuples make a phase's packets larger than a 2 MB L2 cache, as
// in the paper-scale joins; at 10,000 the packets stay cache-resident and
// hide where the senders write. It uses only the exported sender API.
func BenchmarkSenderExchange(b *testing.B) {
	const producers, fragment = 8, 12500
	sites := make([]int, producers)
	for i := range sites {
		sites[i] = i
	}
	tab := &split.JoinTable{Sites: sites}
	frags := make([]tuple.Batch, producers)
	for p := range frags {
		for i := 0; i < fragment; i++ {
			v := int32(p*fragment + i)
			var t tuple.Tuple
			t.SetInt(tuple.Unique1, v)
			frags[p].Append(&t, split.Hash(v, 1989))
		}
	}

	type mailbox struct {
		mu   sync.Mutex
		pkts []*Batch
	}
	boxes := make([]mailbox, producers)
	deliver := func(dst int, run []*Batch) {
		mb := &boxes[dst]
		mb.mu.Lock()
		mb.pkts = append(mb.pkts, run...)
		mb.mu.Unlock()
		PutRun(run)
	}
	net := New(cost.Default())

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for p := range frags {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				var a cost.Acct
				s := net.NewSender(&a, p, deliver)
				f := &frags[p]
				for i := range f.Tuples {
					s.Send(tab.Lookup(f.Hashes[i]), 0, &f.Tuples[i], f.Hashes[i])
				}
				s.FlushAll()
				s.Release()
			}(p)
		}
		wg.Wait()
		for d := range boxes {
			wg.Add(1)
			go func(mb *mailbox) {
				defer wg.Done()
				var a cost.Acct
				for _, pkt := range mb.pkts {
					net.Recv(&a, pkt)
				}
				PutBatches(mb.pkts)
				mb.pkts = mb.pkts[:0]
			}(&boxes[d])
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*producers*fragment), "ns/tuple")
}
