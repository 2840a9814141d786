package gamma

import (
	"fmt"
	"math"
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
// and Resize concatenate them. refSpillAll, refProbeBatch and
// refChainStats are SpillAll, ProbeBatch and ChainStats as they were
// before chains carried summaries: every probe walks its chain, and chain
// lengths are counted by walking. The reference functions set only a
// slot's head, so a reference table's summaries stay zero.
// TestHashTableMatchesReference, TestProbeBatchMatchesReference and
// FuzzHashTableMatchesReference hold the table to them.
func refInsert(ht *HashTable, a *cost.Acct, t *tuple.Tuple, h uint64) []tuple.Tuple {
	key := OverflowKey(h)
	if key >= ht.cutoff {
		panic("gamma: Insert called with hash above cutoff")
	}
	a.AddCPU(ht.model.Insert + ht.model.Histogram)
	s := ht.slot(h)
	ht.entries = append(ht.entries, htEntry{h: h, key: key, next: ht.slots[s].head - 1, t: *t})
	ht.slots[s].head = int32(len(ht.entries))
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
	clear(ht.slots)
	for i := range ht.entries {
		s := ht.slot(ht.entries[i].h)
		ht.entries[i].next = ht.slots[s].head - 1
		ht.slots[s].head = int32(i + 1)
	}
	return evicted
}

func refSpillAll(ht *HashTable, a *cost.Acct) ([]tuple.Tuple, []uint64) {
	if len(ht.entries) == 0 {
		return nil, nil
	}
	a.AddCPU(cost.ScaleNs(len(ht.entries), ht.model.Chain))
	tuples := make([]tuple.Tuple, len(ht.entries))
	hashes := make([]uint64, len(ht.entries))
	for i := range ht.entries {
		tuples[i] = ht.entries[i].t
		hashes[i] = ht.entries[i].h
	}
	ht.entries = ht.entries[:0]
	clear(ht.slots)
	ht.hist = [256]int32{}
	return tuples, hashes
}

func refProbeBatch(ht *HashTable, a *cost.Acct, tuples []tuple.Tuple, hashes []uint64, attr int,
	fn func(outer, match *tuple.Tuple)) {
	for i := range tuples {
		a.AddCPU(ht.model.Probe)
		key := tuples[i].Int(attr)
		for e := ht.slots[ht.slot(hashes[i])].head - 1; e >= 0; e = ht.entries[e].next {
			a.AddCPU(ht.model.Chain)
			if ht.entries[e].t.Int(ht.attr) == key {
				fn(&tuples[i], &ht.entries[e].t)
			}
		}
	}
}

func refChainStats(ht *HashTable) (avg float64, maxLen int) {
	total, chains := 0, 0
	for _, s := range ht.slots {
		l := 0
		for e := s.head - 1; e >= 0; e = ht.entries[e].next {
			l++
		}
		if l == 0 {
			continue
		}
		total += l
		chains++
		if l > maxLen {
			maxLen = l
		}
	}
	if chains == 0 {
		return 0, 0
	}
	return float64(total) / float64(chains), maxLen
}

// checkSummaries requires every slot's summary to equal a walk of its
// chain: the entry count, saturated at chainLenMask, and the OR of the
// entries' key bits.
func checkSummaries(t *testing.T, step int, ht *HashTable) {
	t.Helper()
	for i, s := range ht.slots {
		var l, bits uint32
		for e := s.head - 1; e >= 0; e = ht.entries[e].next {
			l++
			bits |= keyBit(ht.entries[e].t.Int(ht.attr))
		}
		if want := min(l, chainLenMask) | bits; s.meta != want {
			t.Fatalf("step %d: slot %d summary %#x, its chain of %d entries %#x", step, i, s.meta, l, want)
		}
	}
}

// probeMatch is one match a probe check records: the outer tuple's index
// in its batch and the matched entry's Unique2.
type probeMatch struct{ outer, match int32 }

// checkProbes probes got with ProbeBatch and with a Probe loop, and want
// with refProbeBatch, each into a fresh account through a callback that
// charges and notes, as a join's emitter does when a packet seals under a
// net fault. It requires the same matches in the same order and the same
// account, events and their stamps included.
func checkProbes(t *testing.T, step int, got, want *HashTable, outer []tuple.Tuple, hashes []uint64) {
	t.Helper()
	m := got.model
	var matches [3][]probeMatch
	var accts [3]cost.Acct
	onMatch := func(k int, outer, match *tuple.Tuple) {
		matches[k] = append(matches[k], probeMatch{outer.Int(tuple.Unique2), match.Int(tuple.Unique2)})
		accts[k].AddCPU(m.WriteTuple)
		accts[k].Note("match", int64(match.Int(tuple.Unique2)))
	}
	got.ProbeBatch(&accts[0], outer, hashes, tuple.Unique1, func(o, mt *tuple.Tuple) { onMatch(0, o, mt) })
	for i := range outer {
		o := &outer[i]
		got.Probe(&accts[1], hashes[i], o.Int(tuple.Unique1), func(mt *tuple.Tuple) { onMatch(1, o, mt) })
	}
	refProbeBatch(want, &accts[2], outer, hashes, tuple.Unique1, func(o, mt *tuple.Tuple) { onMatch(2, o, mt) })
	for k, name := range []string{"ProbeBatch", "Probe"} {
		if !slices.Equal(matches[k], matches[2]) {
			t.Fatalf("step %d: %s matched %v, reference %v", step, name, matches[k], matches[2])
		}
		if d := acctDiff(accts[k], accts[2]); d != "" {
			t.Fatalf("step %d: %s %s", step, name, d)
		}
	}
}

// acctDiff describes how account got differs from want: their resource
// times, or their first differing event; it is empty when they are equal.
func acctDiff(got, want cost.Acct) string {
	if got.CPU != want.CPU || got.Disk != want.Disk || got.Net != want.Net {
		return fmt.Sprintf("account cpu %d disk %d net %d, reference cpu %d disk %d net %d",
			got.CPU, got.Disk, got.Net, want.CPU, want.Disk, want.Net)
	}
	for i := range min(len(got.Events), len(want.Events)) {
		if got.Events[i] != want.Events[i] {
			return fmt.Sprintf("event %d of %d: %+v, reference %+v", i, len(want.Events), got.Events[i], want.Events[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Sprintf("noted %d events, reference %d", len(got.Events), len(want.Events))
	}
	return ""
}

// probeSet makes the outer tuples of a probe check from the last inserted
// (key, hash) pairs: each pair as inserted, which matches unless the tuple
// was evicted; a key outside the workload's domain on the same chain,
// which the summary rules out unless its key bit collides; and the key
// under a neighbouring hash, usually on another chain.
func probeSet(recent []htOp) ([]tuple.Tuple, []uint64) {
	outer := make([]tuple.Tuple, 0, 3*len(recent))
	hashes := make([]uint64, 0, 3*len(recent))
	for _, op := range recent {
		for _, p := range [3]struct {
			key int32
			h   uint64
		}{{op.key, op.h}, {op.key + 1<<20, op.h}, {op.key, op.h + 1}} {
			tp := mk(p.key)
			tp.SetInt(tuple.Unique2, int32(len(outer)))
			outer = append(outer, tp)
			hashes = append(hashes, p.h)
		}
	}
	return outer, hashes
}

// htOp is one step of a hash-table workload: an Insert of key with routing
// hash h, a Resize to capBytes, a SpillAll, or, as the next overflow level
// does, a fresh table in place of the last.
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
	htSpill
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

// probeWindow is how many of the last inserted (key, hash) pairs a probe
// check draws on.
const probeWindow = 16

// checkHashTableMatchesReference runs ops on a table through Insert,
// Resize and SpillAll and on a twin through the reference, and requires
// the same evicted or spilled tuples in order, cutoff, clearing passes,
// length and account after every step, and the same chains at the end of
// each table. After every step it also checks the table's chain summaries
// (checkSummaries) and probes both tables (checkProbes) around the last
// probeWindow inserts. An Insert moves to the next hash below the cutoff
// (belowCutoff), or is skipped. Every table starts at capBytes. It runs
// twice: on fresh tables, and on tables reset from dirty ones, as
// NewHashTable reuses a released table (a new level resets the table that
// ran the last); the reference tables are always fresh.
func checkHashTableMatchesReference(t *testing.T, capBytes int64, ops []htOp) {
	t.Helper()
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reused"
		}
		t.Run(name, func(t *testing.T) { checkTableBuild(t, capBytes, ops, reuse) })
	}
}

// checkTableBuild is one run of checkHashTableMatchesReference.
func checkTableBuild(t *testing.T, capBytes int64, ops []htOp, reuse bool) {
	t.Helper()
	m := cost.Default()
	fresh := func() *HashTable {
		ht := new(HashTable)
		ht.reset(m, capBytes, tuple.Unique1)
		return ht
	}
	got, want := fresh(), fresh()
	if reuse {
		got = dirtyTable(t, m)
		got.reset(m, capBytes, tuple.Unique1)
	}
	var ga, wa cost.Acct
	inserts, evicted, passes := 0, 0, 0
	var recent []htOp // the last probeWindow inserts, as inserted
	checkState := func(step int, op htOp) {
		t.Helper()
		if got.Cutoff() != want.Cutoff() || got.Overflows() != want.Overflows() || got.Len() != want.Len() {
			t.Fatalf("step %d (%+v): cutoff %#x overflows %d len %d, reference %#x %d %d", step, op,
				got.Cutoff(), got.Overflows(), got.Len(), want.Cutoff(), want.Overflows(), want.Len())
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Fatalf("step %d (%+v): account %+v, reference %+v", step, op, ga, wa)
		}
		checkSummaries(t, step, got)
		outer, hashes := probeSet(recent)
		checkProbes(t, step, got, want, outer, hashes)
	}
	endTable := func() {
		t.Helper()
		gAvg, gMax := got.ChainStats()
		wAvg, wMax := refChainStats(want)
		if gAvg != wAvg || gMax != wMax {
			t.Fatalf("chains (%v, %d), reference (%v, %d)", gAvg, gMax, wAvg, wMax)
		}
		passes += want.Overflows()
	}
	checkState(-1, htOp{kind: htLevel})
	for i, op := range ops {
		var gev, wev []tuple.Tuple
		switch op.kind {
		case htResize:
			gev, wev = got.Resize(&ga, op.capBytes), refResize(want, &wa, op.capBytes)
		case htSpill:
			var gh, wh []uint64
			gev, gh = got.SpillAll(&ga)
			wev, wh = refSpillAll(want, &wa)
			if !slices.Equal(gh, wh) {
				t.Fatalf("step %d: spilled hashes %v, reference %v", i, gh, wh)
			}
		case htLevel:
			endTable()
			if want = fresh(); reuse {
				got.reset(m, capBytes, tuple.Unique1)
			} else {
				got = fresh()
			}
			checkState(i, op)
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
			if len(recent) == probeWindow {
				recent = recent[1:]
			}
			recent = append(recent, htOp{key: op.key, h: h})
		}
		evicted += len(wev)
		if !slices.Equal(gev, wev) {
			t.Fatalf("step %d (%+v): evicted %d tuples %v, reference %d %v", i, op, len(gev), gev, len(wev), wev)
		}
		checkState(i, op)
	}
	endTable()
	t.Logf("%d steps: %d inserts, %d evicted in %d clearing passes", len(ops), inserts, evicted, passes)
}

// dirtyTable returns a table that has been through every kind of step: it
// has overflowed and lowered its cutoff, been resized and spilled, and
// holds tuples, histogram counts and evictions, keyed on another attribute
// and over more slots than most cases use. A reset must leave none of it.
func dirtyTable(t *testing.T, m *cost.Model) *HashTable {
	t.Helper()
	ht := new(HashTable)
	ht.reset(m, 600*tuple.Bytes, tuple.Unique2)
	var a cost.Acct
	fill := func(n int) {
		for i := range n {
			if h, ok := belowCutoff(ht.Cutoff(), split.Hash(int32(i), 3)); ok {
				tp := mk(int32(i))
				ht.Insert(&a, &tp, h)
			}
		}
	}
	fill(700)
	ht.Resize(&a, 300*tuple.Bytes)
	ht.SpillAll(&a)
	fill(400)
	if !ht.Overflowed() || ht.Cutoff() == math.MaxUint64 || ht.Len() == 0 || len(ht.evicted) == 0 {
		t.Fatalf("dirty table: %d overflows, cutoff %#x, %d tuples, %d evicted",
			ht.Overflows(), ht.Cutoff(), ht.Len(), len(ht.evicted))
	}
	return ht
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
// SpillAll and one in 400 a fresh table.
func htOps(r *xrand.Source, count, capTuples int, hashes []uint64) []htOp {
	ops := make([]htOp, count)
	for i := range ops {
		op := &ops[i]
		switch r.Intn(400) {
		case 0:
			op.kind = htLevel
			continue
		case 11:
			op.kind = htSpill
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

// TestProbeBatchMatchesReference probes tables after inserts that overrun
// the capacity, after Resize swings, after SpillAll with later inserts (as
// dynamic Hybrid resurrects a spilled partition), and on one chain of more
// than chainLenMask entries, whose count saturates so every probe of it
// walks. The checker probes after every step.
func TestProbeBatchMatchesReference(t *testing.T) {
	spread := func(n, domain int, extra ...htOp) []htOp {
		ops := make([]htOp, 0, n+len(extra))
		for i := 0; i < n; i++ {
			k := int32((i * 7919) % domain)
			ops = append(ops, htOp{key: k, h: split.Hash(k, 7)})
		}
		for i, op := range extra {
			ops = slices.Insert(ops, (i+1)*n/(len(extra)+1), op)
		}
		return ops
	}
	resize := func(f float64, capTuples int) htOp {
		return htOp{kind: htResize, capBytes: int64(f * float64(capTuples*tuple.Bytes))}
	}
	spill := htOp{kind: htSpill}
	// One key under one hash makes one chain; other keys join it under the
	// same hash.
	var long []htOp
	for i := 0; i < 400; i++ {
		k := int32(5)
		if i%50 == 49 {
			k = int32(1000 + i)
		}
		long = append(long, htOp{key: k, h: 12345})
	}
	long = append(long, spread(200, 600)...)
	for _, tc := range []struct {
		name      string
		capTuples int
		ops       []htOp
	}{
		{"overflow", 120, spread(1500, 600)},
		{"resize-swings", 300, spread(1200, 700, resize(0.25, 300), resize(3, 300), resize(0.5, 300), resize(0, 300), resize(2, 300))},
		{"spill", 200, spread(1000, 300, spill, spill, resize(0.5, 200), spill)},
		{"long-chain", 700, long},
		{"long-chain-overflow", 300, long},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkHashTableMatchesReference(t, int64(tc.capTuples)*tuple.Bytes, tc.ops)
		})
	}
}

// FuzzHashTableMatchesReference holds the table, its summaries and its
// probes to the reference on random workloads of up to 2,000 steps, for
// tables of 0 to 511 tuples, with hashes spread over every histogram range
// or confined to one to four of them.
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
