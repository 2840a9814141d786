package netsim

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
)

// pktRec is one delivered packet, flattened for comparison: identity, the
// run-position it arrived in, and the payload values.
type pktRec struct {
	seq    int64
	dst    int
	tag    int
	local  bool
	vals   []int32
	hashes []uint64
}

// streamTags returns up to k distinct stream tags in the shapes the join
// operators use: the probe and store streams (-1, -2), bucket ids, and the
// per-join-site inner and outer overflow streams (1<<20+site, 1<<21+site).
func streamTags(k, nsites int) []int {
	all := []int{-1, -2, 0, 1, 2, 3}
	for site := 0; site < nsites; site++ {
		all = append(all, 1<<20+site, 1<<21+site)
	}
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// sendTrial pushes n synthetic tuples through one sender at the given
// delivery-run length, routing each through the split table and spreading
// them over the given stream tags, and returns the delivered packets in
// arrival order, the sender's account, and the network counters after
// FlushAll. maxRun records the largest delivered run observed.
func sendTrial(t *testing.T, tab *split.JoinTable, n int, runLen int, seed uint64,
	tags []int) (recs []pktRec, acct cost.Acct, ctr Counters, maxRun int) {
	t.Helper()
	net := New(cost.Default())
	net.SetRunLength(runLen)
	deliver := func(dst int, run []*Batch) {
		if len(run) > maxRun {
			maxRun = len(run)
		}
		if runLen >= 1 && len(run) > runLen {
			t.Fatalf("runLen %d: delivered a run of %d packets", runLen, len(run))
		}
		for _, b := range run {
			if b.Dst != dst {
				t.Fatalf("run for dst %d contains a packet addressed to %d", dst, b.Dst)
			}
			r := pktRec{seq: b.Seq, dst: b.Dst, tag: b.Tag, local: b.Local}
			for i := range b.Tuples {
				r.vals = append(r.vals, b.Tuples[i].Int(tuple.Unique1))
				r.hashes = append(r.hashes, b.Hashes[i])
			}
			recs = append(recs, r)
		}
	}
	snd := net.NewSender(&acct, 0, deliver)
	for i := 0; i < n; i++ {
		// Deterministic synthetic attribute: mixes the fuzz seed so the
		// value distribution (and thus routing) varies run to run.
		v := int32(uint32(seed>>16) + uint32(i)*2654435761)
		h := split.Hash(v, seed)
		// Interleave the tags, mostly switching every tuple but holding one
		// for a stretch at the top of every 64: forces mid-stream buffer
		// switches, so partial batches of many streams coexist at the
		// FlushAll barrier.
		tag := tags[int(uint32(v)%uint32(len(tags)))]
		if i%64 < 16 {
			tag = tags[(i/64)%len(tags)]
		}
		var tt tuple.Tuple
		tt.SetInt(tuple.Unique1, v)
		snd.Send(tab.Lookup(h), tag, &tt, h)
	}
	snd.FlushAll()
	ctr = net.Counters()
	snd.Release()
	if after := net.Counters(); after != ctr {
		t.Fatalf("Release moved the counters: %+v after FlushAll, %+v after Release", ctr, after)
	}
	return recs, acct, ctr, maxRun
}

// FuzzBatchRouting is the transport half of the serial-vs-batched
// equivalence contract, driven with arbitrary shapes: relation sizes from a
// single tuple up, run lengths that straddle packet and page boundaries,
// and partial batches left for the FlushAll barrier. The serial engine
// (delivery runs of one packet) is the oracle: the batched engine must
// deliver the identical packets — same sequence numbers, same payload, same
// charges — merely grouped into runs, and every tuple must land on the site
// the unbatched split-table layout assigns. Tuples are spread over up to
// ntags interleaved streams in the operators' real tag shapes, which
// exercises the sender's tag directory and FlushAll's first-write order.
func FuzzBatchRouting(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(2), uint64(0), uint8(1))       // single-tuple relation
	f.Add(uint16(9), uint8(8), uint8(32), uint64(1989), uint8(1))   // exactly one packet
	f.Add(uint16(10), uint8(8), uint8(32), uint64(1989), uint8(2))  // one packet + partial
	f.Add(uint16(500), uint8(8), uint8(3), uint64(42), uint8(6))    // runs straddle pages
	f.Add(uint16(2000), uint8(31), uint8(64), uint64(7), uint8(40)) // many sites and tags, long runs
	f.Add(uint16(77), uint8(2), uint8(1), uint64(123), uint8(1))    // "batched" at length 1
	f.Add(uint16(1500), uint8(4), uint8(5), uint64(11), uint8(14))  // every overflow stream live
	f.Fuzz(func(t *testing.T, n16 uint16, nsites uint8, runLen8 uint8, seed uint64, ntags uint8) {
		if nsites == 0 {
			return
		}
		n := int(n16) % 2048
		runLen := int(runLen8)%64 + 1

		sites := make([]int, nsites)
		for i := range sites {
			sites[i] = i
		}
		tab := &split.JoinTable{Sites: sites}
		tags := streamTags(int(ntags), int(nsites))

		serial, serialAcct, serialCtr, _ := sendTrial(t, tab, n, 1, seed, tags)
		batched, batchedAcct, batchedCtr, _ := sendTrial(t, tab, n, runLen, seed, tags)

		// The simulated charges and the network counters must not move with
		// the run length.
		if serialAcct.CPU != batchedAcct.CPU || serialAcct.Net != batchedAcct.Net || serialAcct.Disk != batchedAcct.Disk {
			t.Fatalf("charges differ: serial %+v batched %+v", serialAcct, batchedAcct)
		}
		if serialCtr != batchedCtr {
			t.Fatalf("counters differ: serial %+v batched %+v", serialCtr, batchedCtr)
		}
		if got := serialCtr.TuplesLocal + serialCtr.TuplesRemote; got != cost.Tuples(n) {
			t.Fatalf("counters saw %d tuples, want %d", got, n)
		}

		// Packet-for-packet identity. Sequence numbers are assigned at
		// packet-flush time, which batching must not move, so the arrival
		// order may differ between engines but the (Seq -> packet) mapping
		// may not; compare in Seq order, the consumer's replay order.
		if len(serial) != len(batched) {
			t.Fatalf("packet counts differ: serial %d batched %d", len(serial), len(batched))
		}
		bySeq := func(recs []pktRec) map[int64]pktRec {
			m := make(map[int64]pktRec, len(recs))
			for _, r := range recs {
				if _, dup := m[r.seq]; dup {
					t.Fatalf("duplicate sequence number %d", r.seq)
				}
				m[r.seq] = r
			}
			return m
		}
		sm, bm := bySeq(serial), bySeq(batched)
		total := 0
		for seq, sr := range sm {
			br, ok := bm[seq]
			if !ok {
				t.Fatalf("seq %d delivered serially but not batched", seq)
			}
			if sr.dst != br.dst || sr.tag != br.tag || sr.local != br.local {
				t.Fatalf("seq %d identity differs: serial %+v batched %+v", seq, sr, br)
			}
			if len(sr.vals) != len(br.vals) {
				t.Fatalf("seq %d payload length differs: %d vs %d", seq, len(sr.vals), len(br.vals))
			}
			for i := range sr.vals {
				if sr.vals[i] != br.vals[i] || sr.hashes[i] != br.hashes[i] {
					t.Fatalf("seq %d tuple %d differs: (%d,%d) vs (%d,%d)",
						seq, i, sr.vals[i], sr.hashes[i], br.vals[i], br.hashes[i])
				}
			}
			total += len(sr.vals)
		}
		// Nothing lost, nothing invented: the partial batches left at the
		// barrier were flushed, once.
		if total != n {
			t.Fatalf("delivered %d tuples, want %d", total, n)
		}

		// Cross-check against the unbatched split-table layout: every
		// delivered tuple sits on the exact site the table assigns its
		// recomputed hash, and the short-circuit flag matches src==dst.
		for _, r := range batched {
			for i, v := range r.vals {
				h := split.Hash(v, seed)
				if h != r.hashes[i] {
					t.Fatalf("seq %d tuple %d: hash drifted in transit: %d vs %d", r.seq, i, r.hashes[i], h)
				}
				if want := tab.Lookup(h); r.dst != want {
					t.Fatalf("seq %d tuple %d (value %d) delivered to site %d, split table says %d",
						r.seq, i, v, r.dst, want)
				}
			}
			if r.local != (r.dst == 0) {
				t.Fatalf("seq %d: Local = %v on dst %d from src 0", r.seq, r.local, r.dst)
			}
		}
	})
}
