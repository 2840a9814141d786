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
// hide where the senders write. It uses only the exported sender API that
// predates stream handles (Send), so it runs unchanged on earlier versions
// of the sender for paired comparisons.
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
			frags[p].Tuples = append(frags[p].Tuples, t)
			frags[p].Hashes = append(frags[p].Hashes, split.Hash(v, 1989))
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

// BenchmarkSenderExchangeHybrid is BenchmarkSenderExchange in the shape of
// a remote Hybrid partitioning pass, where the sender's streams span many
// tags: eight disk-site producers route 100,000 tuples through the Hybrid
// split table of 8 buckets over 8 disk sites and 8 join sites (8 + 7 × 8
// entries), so a tuple goes to a bucket fragment under its bucket's tag, to
// its join site under the probe tag, or — one bucket-0 tuple in eight,
// standing in for tuples above a hash-table cutoff — to that join site's
// overflow disk under its overflow tag. Each producer resolves its streams
// once into a cache indexed like probePass's (entry, then entries + entry
// for the overflow stream) and sends through the handles.
func BenchmarkSenderExchangeHybrid(b *testing.B) {
	const producers, fragment, sites = 8, 12500, 16
	disks, joins := make([]int, producers), make([]int, producers)
	for i := range disks {
		disks[i], joins[i] = i, producers+i
	}
	pt, err := split.NewHybrid(8, disks, joins)
	if err != nil {
		b.Fatal(err)
	}
	ne := pt.Entries()
	frags := make([]tuple.Batch, producers)
	for p := range frags {
		for i := 0; i < fragment; i++ {
			v := int32(p*fragment + i)
			var t tuple.Tuple
			t.SetInt(tuple.Unique1, v)
			frags[p].Tuples = append(frags[p].Tuples, t)
			frags[p].Hashes = append(frags[p].Hashes, split.Hash(v, 1989))
		}
	}

	type mailbox struct {
		mu   sync.Mutex
		pkts []*Batch
	}
	boxes := make([]mailbox, sites)
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
				streams := s.StreamCache(2 * ne)
				f := &frags[p]
				for i := range f.Tuples {
					h := f.Hashes[i]
					e := pt.Entry(h)
					k, dst, tag := e, 0, 0
					switch bucket, site := pt.Route(e); {
					case bucket != 0:
						dst, tag = site, bucket
					case h>>61 == 7:
						k, dst, tag = ne+e, site-producers, 1<<21+site
					default:
						dst, tag = site, -1
					}
					st := streams[k]
					if st == nil {
						st = s.Stream(dst, tag)
						streams[k] = st
					}
					s.SendTo(st, &f.Tuples[i], h)
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
