package gamma

import (
	"math"
	"slices"
	"sync"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// OverflowKey maps a routing hash into the full 64-bit space over which the
// overflow histogram and cutoffs are defined. Routing hashes may be dense
// small integers (the system hash function is the identity on benchmark
// keys), so the histogram remixes them to spread the 256 ranges; equal join
// values always produce equal overflow keys, which keeps the inner and outer
// overflow partitions consistent.
func OverflowKey(h uint64) uint64 { return xrand.Mix64(h ^ 0x5CA1AB1E0FF10AD) }

// AboveCutoff reports whether a tuple with routing hash h belongs to the
// overflow partition under the given cutoff.
func AboveCutoff(cutoff, h uint64) bool { return OverflowKey(h) >= cutoff }

// HashTable is the memory-limited in-memory join hash table used by the
// Simple, Grace, and Hybrid algorithms, including the paper's overflow
// machinery (Section 4.1, "Grace and Hybrid Performance over Intermediate
// points"):
//
//   - a histogram over ranges of hash values is maintained as tuples are
//     inserted;
//   - when capacity is exceeded, a cutoff hash value is chosen from the
//     histogram so that clearing all tuples at or above it frees about 10%
//     of the table, and those tuples are evicted to an overflow file;
//   - subsequently arriving tuples at or above the cutoff bypass the table
//     entirely and are sent straight to the overflow file.
type HashTable struct {
	model    *cost.Model
	capBytes int64
	attr     int

	slots   []htSlot
	entries []htEntry
	hist    [256]int32 // live tuples per top-byte hash range

	cutoff    uint64 // tuples with h >= cutoff overflow; starts at max
	overflows int    // number of clearing passes performed

	// evicted is the eviction buffer: Insert and Resize return the tuples
	// they evicted in it, valid until the table's next Insert or Resize.
	evicted []tuple.Tuple
}

type htEntry struct {
	h    uint64 // routing hash (chains)
	key  uint64 // overflow key (histogram/cutoff)
	next int32
	t    tuple.Tuple
}

// htSlot is one chain of the table: head is its first entry's index plus
// one (0 for an empty chain), and meta summarizes the chain. meta's low 8
// bits count its entries, saturating at chainLenMask; each of the 24 bits
// above them stands for a group of join keys (keyBit), and a chain's bits
// are the OR over its entries' keys. A probe whose key bit is clear on a
// chain of known length knows the chain holds no match without walking it.
type htSlot struct {
	head int32
	meta uint32
}

const chainLenMask = 0xFF

// keyBit returns the bit of a slot's meta that stands for join key k: one
// of the 24 bits above the chain length, chosen by a multiplicative hash of
// k (the join key, not the routing hash, so a stored tuple and its probe
// agree whatever hashes they were routed under).
func keyBit(k int32) uint32 {
	return 1 << (8 + uint32(uint64(uint32(k)*0x9E3779B9)*24>>32))
}

// add counts one more entry with join key k on the slot's chain.
func (s *htSlot) add(k int32) {
	if s.meta&chainLenMask != chainLenMask {
		s.meta++
	}
	s.meta |= keyBit(k)
}

// misses reports whether the chain provably holds no entry with join key
// k: k's bit is clear and the length has not saturated, so a probe can
// charge the walk without making it.
func (s htSlot) misses(k int32) bool {
	return s.meta&keyBit(k) == 0 && s.meta&chainLenMask != chainLenMask
}

// tablePool recycles whole tables, their slot, entry and eviction arrays
// included, across join levels: a table's entry array is multi-megabyte at
// benchmark capacities, and each overflow level (and each dynamic-Hybrid
// partition) would otherwise allocate a fresh one. It is the simulator's
// one sync.Pool, not a free list, because a collection may empty it:
// dynamic Hybrid holds more than a hundred tables at once, and on the host
// benchmark's recovery-traced workload a free list that kept every idle
// table raised the peak heap from 79 to 104 MB, and one capped at 16
// tables to 83 MB while allocating 20% more bytes per join. It holds
// pointers, so a Put boxes nothing. Only Release hands tables back, and
// only callers that provably hold the last reference call it.
var tablePool = sync.Pool{New: func() any { return new(HashTable) }}

// NewHashTable returns an empty table holding at most capBytes of tuples,
// keyed on integer attribute attr. fill, when given, is how many tuples the
// caller expects the table to hold; it sizes only the preallocated entry
// array, so chains, cutoffs and charges still follow capBytes alone.
func NewHashTable(m *cost.Model, capBytes int64, attr int, fill ...int) *HashTable {
	ht := tablePool.Get().(*HashTable)
	ht.reset(m, capBytes, attr, fill...)
	return ht
}

// reset makes ht the table NewHashTable describes, as if freshly made,
// keeping only the storage of its arrays.
func (ht *HashTable) reset(m *cost.Model, capBytes int64, attr int, fill ...int) {
	slots, entries, evicted := ht.slots, ht.entries, ht.evicted
	*ht = HashTable{model: m, capBytes: capBytes, attr: attr, cutoff: math.MaxUint64, evicted: evicted[:0]}
	nb := int(capBytes / tuple.Bytes)
	if nb < 16 {
		nb = 16
	}
	if cap(slots) < nb {
		ht.slots = make([]htSlot, nb)
	} else {
		ht.slots = slots[:nb]
		clear(ht.slots)
	}
	// Pre-size the entry array toward the expected fill (by default the
	// table's capacity) so builds do not pay repeated append-grow copies of
	// multi-megabyte entry arrays (a pure wall-clock cost; the simulated
	// Insert charge is per tuple either way). 8192 bounds the up-front
	// allocation. Dynamic Hybrid states a fill: its per-partition tables
	// have generous capacities they rarely approach, and arrays preallocated
	// at capacity stay reachable in tablePool long after the join.
	prealloc := min(nb, 8192)
	if len(fill) > 0 {
		prealloc = min(prealloc, fill[0])
	}
	if cap(entries) < prealloc {
		ht.entries = make([]htEntry, 0, prealloc)
	} else {
		ht.entries = entries[:0]
	}
}

// Release hands the table back for a later NewHashTable to reuse. Only call
// it when no pointer into the entry array can still be live — Probe and
// ProbeBatch callbacks receive such pointers, so releasing is legal only
// after the phase that probed the table has reached its barrier — and drop
// every reference to the table: another join may own it next.
func (ht *HashTable) Release() {
	if ht != nil {
		tablePool.Put(ht)
	}
}

// slot remixes the routing hash before taking it modulo the chain count:
// routing hashes are dense small integers, and reducing them directly would
// alias with the split tables' mod indexing, producing pathological chain
// lengths that depend on gcd(slots, splitEntries).
const slotSalt = 0x00C0FFEE

func (ht *HashTable) slot(h uint64) int {
	return int(xrand.Mix64(h^slotSalt) % uint64(len(ht.slots)))
}

// relink rebuilds every chain and its summary from the entries, in entry
// order, as a run of Inserts into empty chains would leave them.
func (ht *HashTable) relink() {
	clear(ht.slots)
	for i := range ht.entries {
		e := &ht.entries[i]
		s := &ht.slots[ht.slot(e.h)]
		e.next = s.head - 1
		s.head = int32(i + 1)
		s.add(e.t.Int(ht.attr))
	}
}

// Cutoff returns the current overflow cutoff: tuples whose hash is >= the
// cutoff must be routed to the overflow file instead of the table. The
// split table shipped to outer-relation producers is augmented with these
// per-site cutoffs (the h' functions of Section 3.2).
func (ht *HashTable) Cutoff() uint64 { return ht.cutoff }

// Overflowed reports whether any clearing pass has occurred.
func (ht *HashTable) Overflowed() bool { return ht.overflows > 0 }

// Overflows returns the number of clearing passes.
func (ht *HashTable) Overflows() int { return ht.overflows }

// Len returns the number of tuples currently in the table.
func (ht *HashTable) Len() int { return len(ht.entries) }

// BytesUsed returns the current table payload size.
func (ht *HashTable) BytesUsed() int64 { return int64(len(ht.entries)) * tuple.Bytes }

// Insert adds a tuple whose overflow key is below the cutoff (callers must
// check AboveCutoff first). The tuple is copied into the table; the pointer
// is only borrowed for the call. If the insert exceeds capacity, one or more
// clearing passes run and the evicted tuples are returned for the caller to
// write to its overflow file; the histogram, CPU costs, and cutoff are
// maintained here. The returned slice is the table's eviction buffer: it
// is valid until the next Insert or Resize.
func (ht *HashTable) Insert(a *cost.Acct, t *tuple.Tuple, h uint64) []tuple.Tuple {
	key := OverflowKey(h)
	if key >= ht.cutoff {
		panic("gamma: Insert called with hash above cutoff")
	}
	a.AddCPU(ht.model.Insert + ht.model.Histogram)
	s := &ht.slots[ht.slot(h)]
	ht.entries = append(ht.entries, htEntry{h: h, key: key, next: s.head - 1, t: *t})
	s.head = int32(len(ht.entries))
	s.add(t.Int(ht.attr))
	ht.hist[key>>56]++
	if ht.BytesUsed() <= ht.capBytes {
		return nil
	}
	return ht.shed(a)
}

// Resize changes the table's capacity mid-build — the memory-pressure
// fault path. Growing simply raises the ceiling (the chain directory is
// left alone; chains grow longer, which the per-visit Chain charge already
// prices). Shrinking runs clearing passes until the payload fits, and the
// evicted tuples are returned for the caller to demote to its overflow
// file, exactly as for a capacity-exceeding Insert and in the same buffer.
func (ht *HashTable) Resize(a *cost.Acct, capBytes int64) []tuple.Tuple {
	if capBytes < tuple.Bytes {
		capBytes = tuple.Bytes
	}
	ht.capBytes = capBytes
	return ht.shed(a)
}

// shed runs clearing passes until the payload fits the capacity and
// returns every tuple they evicted, in the table's eviction buffer.
func (ht *HashTable) shed(a *cost.Acct) []tuple.Tuple {
	ev := ht.evicted[:0]
	for ht.BytesUsed() > ht.capBytes {
		n := len(ev)
		if ev = ht.clearTenPercent(a, ev); len(ev) == n {
			break // cannot clear further (degenerate single-range table)
		}
	}
	ht.evicted = ev
	return ev
}

// clearTenPercent picks a new, lower cutoff from the histogram that frees
// about 10% of the table's capacity, evicts every entry at or above it, and
// appends the evicted tuples to ev.
func (ht *HashTable) clearTenPercent(a *cost.Acct, ev []tuple.Tuple) []tuple.Tuple {
	target := int32(ht.capBytes / tuple.Bytes / 10)
	if target < 1 {
		target = 1
	}
	// Walk histogram ranges from the top down until enough tuples are
	// covered; the cutoff becomes the bottom of the last range included.
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
		// All remaining tuples share the lowest range; clear that whole
		// range (cutoff cannot be lowered below range granularity).
		if covered == 0 {
			return ev
		}
	}
	ht.cutoff = newCutoff
	ht.overflows++

	// Examine every tuple in the table and evict qualifying ones. covered
	// counts exactly the live tuples in ranges >= the new cutoff, so it
	// sizes the eviction buffer's growth for the whole pass.
	a.AddCPU(cost.ScaleNs(len(ht.entries), ht.model.Chain))
	kept := ht.entries[:0]
	ev = slices.Grow(ev, int(covered))
	for _, e := range ht.entries {
		if e.key >= ht.cutoff {
			ev = append(ev, e.t)
			ht.hist[e.key>>56]--
		} else {
			kept = append(kept, e)
		}
	}
	ht.entries = kept
	ht.relink()
	return ev
}

// SpillAll drains the whole table — the dynamic Hybrid spill path, which
// demotes an entire partition to disk instead of shaving 10% off a shared
// table. Tuples come back in insertion order together with their routing
// hashes so the caller can forward them to the partition's overflow file
// with routing intact; the walk is charged like a clearing pass. The table
// is left empty but reusable (capacity, attr, and cutoff untouched), ready
// for a later resurrection.
func (ht *HashTable) SpillAll(a *cost.Acct) ([]tuple.Tuple, []uint64) {
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

// Probe looks up every stored tuple matching the key and calls fn for each,
// charging the probe and per-chain-element costs. A chain whose summary
// rules the key out is charged as walked but not walked.
func (ht *HashTable) Probe(a *cost.Acct, h uint64, key int32, fn func(match *tuple.Tuple)) {
	s := ht.slots[ht.slot(h)]
	if s.misses(key) {
		a.AddCPU(ht.model.Probe + cost.ScaleNs(int(s.meta&chainLenMask), ht.model.Chain))
		return
	}
	a.AddCPU(ht.model.Probe)
	for i := s.head - 1; i >= 0; i = ht.entries[i].next {
		a.AddCPU(ht.model.Chain)
		if ht.entries[i].t.Int(ht.attr) == key {
			fn(&ht.entries[i].t)
		}
	}
}

// ProbeBatch probes the table with a whole run of outer tuples: outer tuple
// i (with routing hash hashes[i]) is compared on its integer attribute attr
// against the build side, and fn is called for every match. The charge
// sequence — one Probe per outer tuple, one Chain per chain entry, with
// fn's own charges landing between them exactly where the matches occur —
// is identical to calling Probe in a loop; what batching removes is the
// per-tuple closure allocation and call overhead of the serial form.
//
// Most probes miss, and a walk that ends after an unpredictable number of
// entries costs a mispredicted branch, so a probe whose key the chain's
// summary rules out charges Probe plus one Chain per entry and moves on.
// The charges gather in a local total that reaches a before every call of
// fn, which may note an event stamped with a's elapsed time, and at the
// end.
func (ht *HashTable) ProbeBatch(a *cost.Acct, tuples []tuple.Tuple, hashes []uint64, attr int,
	fn func(outer, match *tuple.Tuple)) {
	// fn never mutates the table (match callbacks only emit), so the hot
	// loop can work from locals instead of reloading fields after each call.
	slots, entries := ht.slots, ht.entries
	battr := ht.attr
	probeNs, chainNs := ht.model.Probe, ht.model.Chain
	hashes = hashes[:len(tuples)] // one bounds check, not one per tuple
	var cpu cost.SimNs
	for i := range tuples {
		key := tuples[i].Int(attr)
		s := slots[xrand.Mix64(hashes[i]^slotSalt)%uint64(len(slots))]
		if s.misses(key) {
			cpu += probeNs + cost.ScaleNs(int(s.meta&chainLenMask), chainNs)
			continue
		}
		cpu += probeNs
		for e := s.head - 1; e >= 0; e = entries[e].next {
			cpu += chainNs
			if entries[e].t.Int(battr) == key {
				a.AddCPU(cpu)
				cpu = 0
				fn(&tuples[i], &entries[e].t)
			}
		}
	}
	a.AddCPU(cpu)
}

// ChainStats returns the average and maximum hash-chain length over
// non-empty chains (the paper reports 3.3 average / 16 max for the skewed
// inner relation). It reads the lengths from the chain summaries and walks
// only the chains whose count saturated.
func (ht *HashTable) ChainStats() (avg float64, maxLen int) {
	total, chains := 0, 0
	for _, s := range ht.slots {
		l := int(s.meta & chainLenMask)
		if l == chainLenMask {
			l = 0
			for e := s.head - 1; e >= 0; e = ht.entries[e].next {
				l++
			}
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
