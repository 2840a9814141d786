package gamma

import (
	"reflect"
	"slices"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// refInsert, refResize and refClearTenPercent are HashTable's Insert,
// Resize and clearTenPercent as they were before the table owned an
// eviction buffer: every clearing pass returns a fresh slice, and Insert
// and Resize concatenate them. TestHashTableMatchesReference and
// FuzzHashTableMatchesReference hold the table to them.
func refInsert(ht *HashTable, a *cost.Acct, t *tuple.Tuple, h uint64) []tuple.Tuple {
	key := OverflowKey(h)
	if key >= ht.cutoff {
		panic("gamma: Insert called with hash above cutoff")
	}
	a.AddCPU(ht.model.Insert + ht.model.Histogram)
	s := ht.slot(h)
	ht.entries = append(ht.entries, htEntry{h: h, key: key, next: ht.heads[s] - 1, t: *t})
	ht.heads[s] = int32(len(ht.entries))
	ht.hist[key>>56]++

	var evicted []tuple.Tuple
	for ht.BytesUsed() > ht.capBytes {
		ev := refClearTenPercent(ht, a)
		if len(ev) == 0 {
			break // cannot clear further (degenerate single-range table)
		}
		evicted = append(evicted, ev...)
	}
	return evicted
}

func refResize(ht *HashTable, a *cost.Acct, capBytes int64) []tuple.Tuple {
	if capBytes < tuple.Bytes {
		capBytes = tuple.Bytes
	}
	ht.capBytes = capBytes
	var evicted []tuple.Tuple
	for ht.BytesUsed() > ht.capBytes {
		ev := refClearTenPercent(ht, a)
		if len(ev) == 0 {
			break // cannot clear further (degenerate single-range table)
		}
		evicted = append(evicted, ev...)
	}
	return evicted
}

func refClearTenPercent(ht *HashTable, a *cost.Acct) []tuple.Tuple {
	target := int32(ht.capBytes / tuple.Bytes / 10)
	if target < 1 {
		target = 1
	}
	var covered int32
	lo := 255
	for ; lo >= 0; lo-- {
		covered += ht.hist[lo]
		if covered >= target {
			break
		}
	}
	if lo < 0 {
		lo = 0
	}
	newCutoff := uint64(lo) << 56
	if newCutoff >= ht.cutoff {
		if covered == 0 {
			return nil
		}
	}
	ht.cutoff = newCutoff
	ht.overflows++

	a.AddCPU(cost.ScaleNs(len(ht.entries), ht.model.Chain))
	kept := ht.entries[:0]
	evicted := make([]tuple.Tuple, 0, covered)
	for _, e := range ht.entries {
		if e.key >= ht.cutoff {
			evicted = append(evicted, e.t)
			ht.hist[e.key>>56]--
		} else {
			kept = append(kept, e)
		}
	}
	ht.entries = kept
	for i := range ht.heads {
		ht.heads[i] = 0
	}
	for i := range ht.entries {
		s := ht.slot(ht.entries[i].h)
		ht.entries[i].next = ht.heads[s] - 1
		ht.heads[s] = int32(i + 1)
	}
	return evicted
}

// htOp is one step of a hash-table workload: an Insert of key with routing
// hash h, a Resize to capBytes, or, as the next overflow level does, a
// fresh table in place of the last.
type htOp struct {
	kind     htOpKind
	capBytes int64
	key      int32
	h        uint64
}

type htOpKind int

const (
	htInsert htOpKind = iota
	htResize
	htLevel
)

// belowCutoff returns the first of h, h+1, ... whose overflow key is
// below cutoff, or false after 4,096 tries. Callers route a tuple above
// the cutoff to the overflow file instead of inserting it, so a workload
// that kept its hashes would all but stop filling the table once clearing
// passes had lowered the cutoff.
func belowCutoff(cutoff, h uint64) (uint64, bool) {
	for range 4096 {
		if !AboveCutoff(cutoff, h) {
			return h, true
		}
		h++
	}
	return 0, false
}

// checkHashTableMatchesReference runs ops on a table through Insert and
// Resize and on a twin through the reference, and requires the same
// evicted tuples in order, cutoff, clearing passes, length and account
// after every step, and the same chains at the end of each table. An
// Insert moves to the next hash below the cutoff (belowCutoff), or is
// skipped. Every table starts at capBytes.
func checkHashTableMatchesReference(t *testing.T, capBytes int64, ops []htOp) {
	t.Helper()
	m := cost.Default()
	got := NewHashTable(m, capBytes, tuple.Unique1)
	want := NewHashTable(m, capBytes, tuple.Unique1)
	var ga, wa cost.Acct
	inserts, evicted, passes := 0, 0, 0
	endTable := func() {
		t.Helper()
		gAvg, gMax := got.ChainStats()
		wAvg, wMax := want.ChainStats()
		if gAvg != wAvg || gMax != wMax {
			t.Fatalf("chains (%v, %d), reference (%v, %d)", gAvg, gMax, wAvg, wMax)
		}
		passes += want.Overflows()
	}
	for i, op := range ops {
		var gev, wev []tuple.Tuple
		switch op.kind {
		case htResize:
			gev, wev = got.Resize(&ga, op.capBytes), refResize(want, &wa, op.capBytes)
		case htLevel:
			endTable()
			got.Release()
			want.Release()
			got, want = NewHashTable(m, capBytes, tuple.Unique1), NewHashTable(m, capBytes, tuple.Unique1)
			continue
		default:
			h, ok := belowCutoff(want.Cutoff(), op.h)
			if !ok {
				continue
			}
			tp := mk(op.key)
			tp.SetInt(tuple.Unique2, int32(i)) // tells duplicate keys apart
			gev, wev = got.Insert(&ga, &tp, h), refInsert(want, &wa, &tp, h)
			inserts++
		}
		evicted += len(wev)
		if !slices.Equal(gev, wev) {
			t.Fatalf("step %d (%+v): evicted %d tuples %v, reference %d %v", i, op, len(gev), gev, len(wev), wev)
		}
		if got.Cutoff() != want.Cutoff() || got.Overflows() != want.Overflows() || got.Len() != want.Len() {
			t.Fatalf("step %d (%+v): cutoff %#x overflows %d len %d, reference %#x %d %d", i, op,
				got.Cutoff(), got.Overflows(), got.Len(), want.Cutoff(), want.Overflows(), want.Len())
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("step %d (%+v): account %+v, reference %+v", i, op, ga, wa)
		}
	}
	endTable()
	t.Logf("%d steps: %d inserts, %d evicted in %d clearing passes", len(ops), inserts, evicted, passes)
}

// rangeHashes returns n routing hashes whose overflow keys all fall in
// histogram range r, the smallest such values.
func rangeHashes(r uint8, n int) []uint64 {
	var hs []uint64
	for h := uint64(0); len(hs) < n; h++ {
		if OverflowKey(h)>>56 == uint64(r) {
			hs = append(hs, h)
		}
	}
	return hs
}

// resizeFactors are the capacity swings htOps draws: a drop to nothing
// (one tuple), shrinks, and grows up to three times the capacity.
var resizeFactors = []float64{0, 0.25, 0.5, 0.9, 1, 1.1, 2, 3}

// htOps makes a random workload of count steps for a table of capTuples
// tuples: inserts over a key domain about twice the capacity (so keys
// repeat), their hashes drawn from hashes when it is not empty, about one
// step in forty a Resize by one of resizeFactors, and about one in 400 a
// fresh table.
func htOps(r *xrand.Source, count, capTuples int, hashes []uint64) []htOp {
	ops := make([]htOp, count)
	for i := range ops {
		op := &ops[i]
		switch r.Intn(400) {
		case 0:
			op.kind = htLevel
			continue
		case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
			op.kind = htResize
			op.capBytes = int64(resizeFactors[r.Intn(len(resizeFactors))] * float64(capTuples*tuple.Bytes))
			continue
		}
		op.key = int32(r.Intn(2*capTuples + 1))
		op.h = split.Hash(op.key, 7)
		if len(hashes) > 0 {
			op.h = hashes[int(op.key)%len(hashes)]
		}
	}
	return ops
}

// TestHashTableMatchesReference covers capacity overruns, Resize swings
// that shrink and regrow the table mid-build, and the degenerate table
// whose tuples all share one histogram range, so one clearing pass evicts
// every tuple it holds.
func TestHashTableMatchesReference(t *testing.T) {
	seq := func(n int, h func(i int) uint64) []htOp {
		ops := make([]htOp, n)
		for i := range ops {
			ops[i] = htOp{key: int32(i % 450), h: h(i % 450)}
		}
		return ops
	}
	spread := func(i int) uint64 { return split.Hash(int32(i), 7) }
	swing := seq(1200, spread)
	for i, f := range []float64{0.25, 3, 0.5, 0, 1.5, 0.1, 2} {
		swing = slices.Insert(swing, 150*(i+1), htOp{kind: htResize, capBytes: int64(f * 300 * tuple.Bytes)})
	}
	one := rangeHashes(200, 450)
	single := seq(1000, func(i int) uint64 { return one[i] })
	single = slices.Insert(single, 40, htOp{kind: htResize, capBytes: tuple.Bytes})
	for _, tc := range []struct {
		name      string
		capTuples int64
		ops       []htOp
	}{
		{"overrun", 100, seq(1500, spread)},
		{"overrun-tiny", 1, seq(200, spread)},
		{"resize-swings", 300, swing},
		{"single-range", 50, single},
		{"random", 200, htOps(xrand.New(1989), 3000, 200, nil)},
		{"random-two-ranges", 64, htOps(xrand.New(7), 2000, 64, append(rangeHashes(3, 40), rangeHashes(250, 40)...))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkHashTableMatchesReference(t, tc.capTuples*tuple.Bytes, tc.ops)
		})
	}
}

// FuzzHashTableMatchesReference holds the table to the reference on
// random workloads of up to 2,000 steps, for tables of 0 to 511 tuples,
// with hashes spread over every histogram range or confined to one to
// four of them.
func FuzzHashTableMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint16(100), uint8(0))
	f.Add(uint64(2), uint16(2000), uint16(300), uint8(1))
	f.Add(uint64(3), uint16(800), uint16(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, count, capTuples uint16, ranges uint8) {
		r := xrand.New(seed)
		ct := int(capTuples % 512)
		var hashes []uint64
		for k := 0; k < int(ranges%5); k++ {
			hashes = append(hashes, rangeHashes(uint8(r.Intn(256)), 16)...)
		}
		checkHashTableMatchesReference(t, int64(ct)*tuple.Bytes, htOps(r, int(count)%2001, ct, hashes))
	})
}
