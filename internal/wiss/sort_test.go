package wiss

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/fault"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

func sortFixture(t *testing.T, n int, seed uint64) (*File, *File, *cost.Acct) {
	t.Helper()
	m := cost.Default()
	d := disk.New(0, m)
	src := NewFile("src", d, m)
	dst := NewFile("dst", d, m)
	var a cost.Acct
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
		src.Append(&a, mkTuple(int32(r.Intn(1000000))))
	}
	src.Flush(&a)
	return src, dst, &a
}

func checkSorted(t *testing.T, f *File, a *cost.Acct, wantN int64) {
	t.Helper()
	if f.Len() != wantN {
		t.Fatalf("sorted file has %d tuples, want %d", f.Len(), wantN)
	}
	prev := int32(-1 << 31)
	f.Scan(a, func(tp *tuple.Tuple) bool {
		v := tp.Int(tuple.Unique1)
		if v < prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
		return true
	})
}

func TestSortInMemory(t *testing.T) {
	src, dst, a := sortFixture(t, 500, 1)
	st, err := Sort(a, src, dst, tuple.Unique1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FitInMemory || st.MergePasses != 0 || st.InitialRuns != 1 {
		t.Fatalf("stats = %+v, want in-memory single run", st)
	}
	checkSorted(t, dst, a, 500)
}

func TestSortExternal(t *testing.T) {
	const n = 5000
	src, dst, a := sortFixture(t, n, 2)
	// 64 KB memory: 8 pages, runs of 315 tuples -> 16 runs, fan-in 7 ->
	// two merge passes.
	st, err := Sort(a, src, dst, tuple.Unique1, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if st.FitInMemory {
		t.Fatal("should not fit in memory")
	}
	if st.InitialRuns != 16 {
		t.Fatalf("InitialRuns = %d, want 16", st.InitialRuns)
	}
	if st.MergePasses != 2 {
		t.Fatalf("MergePasses = %d, want 2", st.MergePasses)
	}
	checkSorted(t, dst, a, n)
}

func TestSortMorePassesWithLessMemory(t *testing.T) {
	src1, dst1, a1 := sortFixture(t, 4000, 3)
	st1, err := Sort(a1, src1, dst1, tuple.Unique1, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	src2, dst2, a2 := sortFixture(t, 4000, 3)
	st2, err := Sort(a2, src2, dst2, tuple.Unique1, 24<<10)
	if err != nil {
		t.Fatal(err)
	}
	if st2.MergePasses <= st1.MergePasses {
		t.Fatalf("passes with small memory (%d) should exceed large (%d)",
			st2.MergePasses, st1.MergePasses)
	}
	if a2.Disk <= a1.Disk {
		t.Fatalf("small-memory sort disk time %d should exceed %d", a2.Disk, a1.Disk)
	}
	checkSorted(t, dst2, a2, 4000)
}

func TestSortEmpty(t *testing.T) {
	src, dst, a := sortFixture(t, 0, 4)
	st, err := Sort(a, src, dst, tuple.Unique1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.InitialRuns != 0 || dst.Len() != 0 {
		t.Fatalf("empty sort produced %+v, %d tuples", st, dst.Len())
	}
}

func TestSortRejectsDirtyDst(t *testing.T) {
	src, dst, a := sortFixture(t, 10, 5)
	dst.Append(a, mkTuple(1))
	if _, err := Sort(a, src, dst, tuple.Unique1, 1<<20); err == nil {
		t.Fatal("Sort into non-empty destination should error")
	}
}

// TestIdleSorterOutlivesCollections requires an idle sorter, buffers and
// all, to survive collections, so what a warmed Sort allocates does not
// depend on when the collector last ran; a sorter whose buffers outgrew
// maxIdleWords is not kept.
func TestIdleSorterOutlivesCollections(t *testing.T) {
	small, big := getSorter(), getSorter()
	dropIdleSorters(t, small, big)
	small.words = make([]uint64, 0, 1024)
	big.words = make([]uint64, 0, maxIdleWords+1)
	small.release()
	big.release()
	runtime.GC()
	runtime.GC()
	idle := drainIdleSorters()
	defer refillIdleSorters(idle)
	if !slices.Contains(idle, small) {
		t.Error("an idle sorter did not survive two collections")
	}
	if slices.Contains(idle, big) {
		t.Errorf("a sorter holding %d words was kept idle, want at most %d", cap(big.words), maxIdleWords)
	}
}

// drainIdleSorters takes every sorter off the idle list and returns them,
// the one a getSorter would take first at the end.
func drainIdleSorters() []*sorter {
	var idle []*sorter
	for {
		s, ok := idleSorters.Get()
		if !ok {
			slices.Reverse(idle)
			return idle
		}
		idle = append(idle, s)
	}
}

// refillIdleSorters puts back what drainIdleSorters took, in its order.
func refillIdleSorters(idle []*sorter) {
	for _, s := range idle {
		idleSorters.Put(s)
	}
}

// dropIdleSorters takes the given sorters off the idle list when the test
// ends, so buffers a test planted in them reach no later Sort.
func dropIdleSorters(t *testing.T, planted ...*sorter) {
	t.Cleanup(func() {
		refillIdleSorters(slices.DeleteFunc(drainIdleSorters(), func(s *sorter) bool {
			return slices.Contains(planted, s)
		}))
	})
}

// TestSortRegrowsUnevenSorterBuffers: an idle sorter whose two word
// buffers differ in size sorts an input longer than the shorter one. Sort
// once sized both buffers by the first alone and sliced the second past
// its capacity.
func TestSortRegrowsUnevenSorterBuffers(t *testing.T) {
	s := getSorter()
	dropIdleSorters(t, s)
	s.words, s.next = make([]uint64, 0, 1024), make([]uint64, 0, 64)
	s.release() // the next getSorter returns s
	const n = 365
	src, dst, a := sortFixture(t, n, 6)
	if _, err := Sort(a, src, dst, tuple.Unique1, 24<<10); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, dst, a, n)
	if cap(s.words) < n || cap(s.next) < n {
		t.Fatalf("the planted sorter holds %d and %d words after sorting %d tuples", cap(s.words), cap(s.next), n)
	}
}

func TestSortPreservesMultisetProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, memKB uint8) bool {
		n := int(nRaw)%2000 + 1
		mem := int64(memKB%64+9) << 10
		m := cost.Default()
		d := disk.New(0, m)
		src := NewFile("src", d, m)
		dst := NewFile("dst", d, m)
		var a cost.Acct
		r := xrand.New(seed)
		counts := map[int32]int{}
		for i := 0; i < n; i++ {
			v := int32(r.Intn(500))
			counts[v]++
			src.Append(&a, mkTuple(v))
		}
		src.Flush(&a)
		if _, err := Sort(&a, src, dst, tuple.Unique1, mem); err != nil {
			return false
		}
		prev := int32(-1 << 31)
		ok := true
		dst.Scan(&a, func(tp *tuple.Tuple) bool {
			v := tp.Int(tuple.Unique1)
			if v < prev {
				ok = false
				return false
			}
			prev = v
			counts[v]--
			return true
		})
		if !ok {
			return false
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// refSort is the tuple-moving external sort that the key-only Sort
// replaced, kept as the reference the differential tests hold Sort to: run
// formation copies each memory load of tuples, sorts it and writes it to a
// run file; each merge pass reads the run files through cursors and writes
// whole tuples to the next pass's files.
func refSort(a *cost.Acct, src, dst *File, attr int, memBytes int64) (SortStats, error) {
	var st SortStats
	if dst.Len() != 0 {
		return st, fmt.Errorf("wiss: Sort destination %q not empty", dst.Name())
	}
	m := src.model
	runTuples := int(memBytes / tuple.Bytes)
	if runTuples < 1 {
		runTuples = 1
	}
	memPages := int(memBytes) / m.P.PageBytes
	fanin := memPages - 1
	if fanin < 2 {
		fanin = 2
	}

	// Pass 0: run formation.
	var runs []*File
	cur := make([]tuple.Tuple, 0, min(runTuples, int(src.Len())))
	flushRun := func() {
		if len(cur) == 0 {
			return
		}
		refSortChunk(a, m, cur, attr)
		st.InitialRuns++
		var out *File
		if int64(len(cur)) == src.Len() && st.InitialRuns == 1 {
			// Whole file fits in memory: write sorted output directly.
			out = dst
			st.FitInMemory = true
		} else {
			out = NewFile(fmt.Sprintf("%s.run%d", src.Name(), st.InitialRuns), src.dsk, m)
		}
		out.AppendBatch(a, cur)
		out.Flush(a)
		if out != dst {
			runs = append(runs, out)
		}
		cur = cur[:0]
	}
	src.Scan(a, func(t *tuple.Tuple) bool {
		cur = append(cur, *t)
		if len(cur) >= runTuples {
			flushRun()
		}
		return true
	})
	flushRun()
	if st.FitInMemory || len(runs) == 0 {
		return st, nil
	}

	// Merge passes.
	for level := 1; ; level++ {
		st.MergePasses++
		var next []*File
		for i := 0; i < len(runs); i += fanin {
			group := runs[i:min(i+fanin, len(runs))]
			out := dst
			if len(runs) > fanin {
				out = NewFile(fmt.Sprintf("%s.m%d.%d", src.Name(), level, i), src.dsk, m)
				next = append(next, out)
			}
			refMergeRuns(a, m, group, out, attr)
			for _, r := range group {
				r.Recycle()
			}
		}
		if len(next) == 0 {
			return st, nil
		}
		runs = next
	}
}

// refSortChunk sorts tuples by attr, ties in input order, and charges
// n*ceil(log2 n) comparisons plus n moves.
func refSortChunk(a *cost.Acct, m *cost.Model, ts []tuple.Tuple, attr int) {
	n := len(ts)
	if n > 1 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(uint32(ts[i].Ints[attr])^0x80000000)<<32 | uint64(uint32(i))
		}
		slices.Sort(keys)
		scratch := slices.Clone(ts)
		for i, k := range keys {
			ts[i] = scratch[uint32(k)]
		}
		lg := int64(bits.Len(uint(n - 1)))
		a.AddCPU(cost.ScaleNs(int64(n)*lg, m.SortCompare))
		a.AddCPU(cost.ScaleNs(n, m.SortMove))
	}
}

// refMergeItem is the head of one run, held by a pointer into the run
// file's pages.
type refMergeItem struct {
	t   *tuple.Tuple
	src int
}

// refMergeHeap is container/heap's min-heap over run heads, comparing keys.
type refMergeHeap struct {
	items []refMergeItem
	attr  int
}

func (h *refMergeHeap) less(i, j int) bool {
	return h.items[i].t.Ints[h.attr] < h.items[j].t.Ints[h.attr]
}

func (h *refMergeHeap) down(i int) {
	n := len(h.items)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

// refMergeRuns k-way merges the sorted runs into out, charging ~log2(k)
// comparisons plus one move per tuple, and all page traffic.
func refMergeRuns(a *cost.Acct, m *cost.Model, runs []*File, out *File, attr int) {
	cursors := make([]*Cursor, len(runs))
	h := &refMergeHeap{attr: attr}
	for i, r := range runs {
		cursors[i] = r.NewCursor(a)
		if t, ok := cursors[i].NextP(); ok {
			h.items = append(h.items, refMergeItem{t: t, src: i})
		}
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	lg := int64(bits.Len(uint(max(len(runs)-1, 1))))
	for len(h.items) > 0 {
		it := h.items[0]
		a.AddCPU(cost.ScaleNs(lg, m.SortCompare) + m.SortMove)
		out.appendOne(a, it.t)
		if t, ok := cursors[it.src].NextP(); ok {
			h.items[0] = refMergeItem{t: t, src: it.src}
			h.down(0)
		} else {
			n := len(h.items) - 1
			h.items[0], h.items[n] = h.items[n], h.items[0]
			h.items = h.items[:n]
			h.down(0)
		}
	}
	out.Flush(a)
}

// sortDisk is how a differential case's disk behaves.
type sortDisk int

const (
	plainDisk  sortDisk = iota
	faultyDisk          // transient read errors: retries, backoff and their notes
	mirrorDown          // a mirrored disk whose primary is down: every read fails over
)

func (d sortDisk) String() string {
	return [...]string{"plain", "faulty", "mirror-down"}[d]
}

// sortRun is everything one sort leaves behind that the differential tests
// compare.
type sortRun struct {
	out          []tuple.Tuple
	st           SortStats
	err          error
	acct         cost.Acct
	disk, backup disk.Counters
}

// runSortOn loads keys into a fresh file on a fresh disk (tuple i carries i
// in unique2, so tie order shows) and sorts it with sortFn.
func runSortOn(sortFn func(*cost.Acct, *File, *File, int, int64) (SortStats, error),
	keys []int32, mem int64, mode sortDisk) sortRun {
	m := cost.Default()
	d, b := disk.New(0, m), disk.New(1, m)
	if mode == mirrorDown {
		d.SetBackup(b)
	}
	if mode == faultyDisk {
		d.SetFaults(fault.NewRegistry(fault.Spec{Seed: 1989, DiskReadRate: 0.3, RetryBackoffNs: 250_000}))
	}
	src := NewFile("diff.src", d, m)
	dst := NewFile("diff.dst", d, m)
	var load cost.Acct
	for i, k := range keys {
		var tp tuple.Tuple
		tp.SetInt(tuple.Unique1, k)
		tp.SetInt(tuple.Unique2, int32(i))
		src.Append(&load, tp)
	}
	src.Flush(&load)
	d.SetDown(mode == mirrorDown)
	d0, b0 := d.Counters(), b.Counters()
	var r sortRun
	r.st, r.err = sortFn(&r.acct, src, dst, tuple.Unique1, mem)
	r.disk, r.backup = d.Counters().Sub(d0), b.Counters().Sub(b0)
	for i := int64(0); i < dst.Len(); i++ {
		tp, _ := dst.At(i)
		r.out = append(r.out, *tp)
	}
	return r
}

// checkSortMatchesReference sorts keys with Sort and with refSort, each on
// its own disk, and requires the same output, stats, account and counters.
func checkSortMatchesReference(t *testing.T, keys []int32, mem int64, mode sortDisk) {
	t.Helper()
	got := runSortOn(Sort, keys, mem, mode)
	want := runSortOn(refSort, keys, mem, mode)
	if got.err != nil || want.err != nil {
		t.Fatalf("errors: Sort %v, reference %v", got.err, want.err)
	}
	if len(got.out) != len(want.out) {
		t.Fatalf("Sort wrote %d tuples, reference %d", len(got.out), len(want.out))
	}
	for i := range got.out {
		if got.out[i] != want.out[i] {
			t.Fatalf("tuple %d: Sort wrote (key %d, input %d), reference (key %d, input %d)", i,
				got.out[i].Int(tuple.Unique1), got.out[i].Int(tuple.Unique2),
				want.out[i].Int(tuple.Unique1), want.out[i].Int(tuple.Unique2))
		}
	}
	if got.st != want.st {
		t.Fatalf("stats: Sort %+v, reference %+v", got.st, want.st)
	}
	if got.acct.CPU != want.acct.CPU || got.acct.Disk != want.acct.Disk || got.acct.Net != want.acct.Net {
		t.Fatalf("account: Sort cpu %d disk %d net %d, reference cpu %d disk %d net %d",
			got.acct.CPU, got.acct.Disk, got.acct.Net, want.acct.CPU, want.acct.Disk, want.acct.Net)
	}
	if !reflect.DeepEqual(got.acct.Events, want.acct.Events) {
		for i := range min(len(got.acct.Events), len(want.acct.Events)) {
			if got.acct.Events[i] != want.acct.Events[i] {
				t.Fatalf("event %d of %d/%d: Sort %+v, reference %+v", i,
					len(got.acct.Events), len(want.acct.Events), got.acct.Events[i], want.acct.Events[i])
			}
		}
		t.Fatalf("Sort noted %d events, reference %d", len(got.acct.Events), len(want.acct.Events))
	}
	if got.disk != want.disk || got.backup != want.backup {
		t.Fatalf("disk counters: Sort %+v / backup %+v, reference %+v / backup %+v",
			got.disk, got.backup, want.disk, want.backup)
	}
}

// TestSortMatchesReference holds the key-only Sort to the tuple-moving
// reference on inputs from empty to multi-pass, heavy ties included, at
// memories from under one page (fan-in 2, one-tuple runs) to more than the
// input, on a plain, a faulty and a failed-over mirrored disk.
func TestSortMatchesReference(t *testing.T) {
	r := xrand.New(24)
	keysOf := func(n, domain int, lo int32) []int32 {
		ks := make([]int32, n)
		for i := range ks {
			ks[i] = lo + int32(r.Intn(domain))
		}
		return ks
	}
	inputs := []struct {
		name string
		keys []int32
	}{
		{"empty", nil},
		{"one", []int32{42}},
		{"negative", append(keysOf(1500, 2_000_000, -1_000_000), math.MinInt32, math.MaxInt32, -1, 0)},
		{"ties5", keysOf(1200, 5, -2)},
		{"descending", func() []int32 {
			ks := make([]int32, 700)
			for i := range ks {
				ks[i] = int32(len(ks) - i)
			}
			return ks
		}()},
	}
	for _, in := range inputs {
		n := int64(len(in.keys))
		mems := []int64{100, tuple.Bytes, 8 << 10, 3 * 8 << 10, 64 << 10,
			n*tuple.Bytes - 1, n * tuple.Bytes, 1 << 20}
		for _, mem := range mems {
			for _, mode := range []sortDisk{plainDisk, faultyDisk, mirrorDown} {
				t.Run(fmt.Sprintf("%s/mem=%d/%v", in.name, mem, mode), func(t *testing.T) {
					checkSortMatchesReference(t, in.keys, mem, mode)
				})
			}
		}
	}
}

// FuzzSortMatchesReference holds Sort to the reference on random inputs:
// up to 3,000 keys from a domain of 1 to 2^32 values, at any memory, on a
// plain, faulty or failed-over disk.
func FuzzSortMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(1200), uint32(5), uint32(100), uint8(0))
	f.Add(uint64(2), uint16(2000), uint32(1<<31), uint32(24<<10), uint8(1))
	f.Add(uint64(3), uint16(800), uint32(40), uint32(8<<10), uint8(2))
	f.Add(uint64(4), uint16(300), uint32(1000), uint32(1<<20), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, domain, mem uint32, mode uint8) {
		n := int(nRaw) % 3001
		r := xrand.New(seed)
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(r.Uint64() % (uint64(domain) + 1))
		}
		checkSortMatchesReference(t, keys, int64(mem)%(1<<21), sortDisk(mode%3))
	})
}
