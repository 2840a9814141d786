package wiss

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"gammajoin/internal/cost"
	"gammajoin/internal/freelist"
	"gammajoin/internal/tuple"
)

// SortStats reports what an external sort did. The number of merge passes is
// what produces the upward steps in the paper's sort-merge response-time
// curves as sort memory shrinks.
type SortStats struct {
	InitialRuns int
	MergePasses int
	FitInMemory bool
}

// Sort externally sorts src by integer attribute attr into dst using at most
// memBytes of sort/merge memory, charging all CPU (comparisons, moves) and
// disk traffic (run files, merge passes) to a. dst must be empty and on the
// same disk as src (Gamma sorts site-local temporary files in place).
//
// Run formation loads memory-sized chunks and sorts them; merging is
// multiway with fan-in limited to the number of memory pages minus one
// output buffer.
//
// The simulated runs are private to the sort, so on the host a run holds
// only words: each tuple's sign-biased key above its position in src. Only
// the last pass copies tuples, once each, from src's extents into dst. Every
// charge still lands as if each run were a file of tuples, named <src>.run<k>
// or <src>.m<level>.<i>, written and read back a page at a time.
func Sort(a *cost.Acct, src, dst *File, attr int, memBytes int64) (SortStats, error) {
	var st SortStats
	if dst.Len() != 0 {
		return st, fmt.Errorf("wiss: Sort destination %q not empty", dst.Name())
	}
	m := src.model
	runTuples := max(int(memBytes/tuple.Bytes), 1)
	fanin := max(int(memBytes)/m.P.PageBytes-1, 2)

	pages := src.pages()
	n := pages.left
	if n > math.MaxUint32 {
		return st, fmt.Errorf("wiss: Sort source %q has %d tuples, more than a run word can index", src.Name(), n)
	}
	s := getSorter()
	defer s.release()
	s.init(a, src, dst, pages.exts, int(n))

	// Pass 0: run formation, reading src's pages in place.
	words := s.words
	start, p := 0, 0
	for {
		pg, ok := pages.next()
		if !ok {
			break
		}
		src.dsk.ReadSeq(a, src.id)
		for i := range pg {
			a.AddCPU(m.ReadTuple)
			words[p] = uint64(uint32(pg[i].Ints[attr])^0x80000000)<<32 | uint64(p)
			p++
			if p-start == runTuples {
				s.formRun(&st, start, p)
				start = p
			}
		}
	}
	if start < p {
		s.formRun(&st, start, p)
	}
	if st.FitInMemory || len(s.ends) == 0 {
		return st, nil
	}

	// Merge passes: fanin runs at a time, until one pass's output is dst.
	for level := 1; ; level++ {
		st.MergePasses++
		runs := len(s.ends)
		last := runs <= fanin
		for i := 0; i < runs; i += fanin {
			s.merge(i, min(i+fanin, runs), level, last)
		}
		if last {
			return st, nil
		}
		s.words, s.next = s.next, s.words
		s.ends, s.nextEnds = s.nextEnds, s.ends[:0]
		s.ids, s.nextIDs = s.nextIDs, s.ids[:0]
	}
}

// idleSorters recycles sorters, so a warmed Sort allocates only dst's extents.
// It is a free list, not a sync.Pool: a collection empties a sync.Pool, and
// refilling it costs each sorter its two n-word buffers again, so what a
// Sort allocated would depend on when the collector last ran. The list holds
// at most as many sorters as ever ran at once (one per site of a sort phase),
// and release drops a sorter whose buffers outgrew maxIdleWords.
var idleSorters freelist.List[*sorter]

// maxIdleWords bounds the words a retained sorter's buffers hold: 2^18
// words is 2 MiB a buffer, room for a 100k-tuple relation sorted whole.
const maxIdleWords = 1 << 18

func getSorter() *sorter {
	if s, ok := idleSorters.Get(); ok {
		return s
	}
	return new(sorter)
}

// sorter is one Sort call's working memory. A run is a range of words plus
// the file id its simulated pages are charged against: run r of the current
// pass is words[ends[r-1]:ends[r]], and a merge pass writes its output runs
// to the same offsets of next.
type sorter struct {
	a        *cost.Acct
	m        *cost.Model
	src, dst *File
	exts     []*extent // src's extents
	extLen   uint32    // tuples per extent of src
	perPage  int

	words, next    []uint64
	ends, nextEnds []int
	ids, nextIDs   []int64

	h    mergeHeap
	curs []runCursor
	hist [4][256]int32
}

// runCursor is a merge's read position in one run. pageEnd is where the run's
// next simulated page starts.
type runCursor struct {
	at, pageEnd, end int
	id               int64
}

func (s *sorter) init(a *cost.Acct, src, dst *File, exts []*extent, n int) {
	s.a, s.m, s.src, s.dst, s.exts = a, src.model, src, dst, exts
	s.extLen, s.perPage = uint32(src.extLen), src.perPage
	if cap(s.words) < n || cap(s.next) < n {
		s.words, s.next = make([]uint64, n), make([]uint64, n)
	}
	s.words, s.next = s.words[:n], s.next[:n]
	s.ends, s.nextEnds = s.ends[:0], s.nextEnds[:0]
	s.ids, s.nextIDs = s.ids[:0], s.nextIDs[:0]
}

// release drops the sorter's references to the caller's files and account
// and returns it to the free list.
func (s *sorter) release() {
	s.a, s.src, s.dst, s.exts = nil, nil, nil, nil
	if cap(s.words) > maxIdleWords {
		return
	}
	idleSorters.Put(s)
}

// tupleAt returns the src tuple a word names. Every extent of a file but
// its last is full, so a position's extent and slot follow from extLen.
func (s *sorter) tupleAt(w uint64) *tuple.Tuple {
	p := uint32(w)
	e := p / s.extLen
	return &s.exts[e].t[p-e*s.extLen]
}

// runStart is the offset of run r's first word.
func (s *sorter) runStart(r int) int {
	if r == 0 {
		return 0
	}
	return s.ends[r-1]
}

// formRun sorts words[start:end], one memory load of k words, and charges
// k*ceil(log2 k) comparisons plus k moves for it. The whole input in one run
// goes straight to dst; any other run is charged as a written run file.
func (s *sorter) formRun(st *SortStats, start, end int) {
	a, m := s.a, s.m
	run := s.words[start:end]
	if k := len(run); k > 1 {
		s.radixSort(run, s.next[start:end])
		lg := int64(bits.Len(uint(k - 1)))
		a.AddCPU(cost.ScaleNs(int64(k)*lg, m.SortCompare))
		a.AddCPU(cost.ScaleNs(k, m.SortMove))
	}
	st.InitialRuns++
	if len(run) == len(s.words) && st.InitialRuns == 1 {
		st.FitInMemory = true
		s.dst.mu.Lock()
		for _, w := range run {
			s.dst.appendLocked(a, s.tupleAt(w))
		}
		s.dst.mu.Unlock()
		s.dst.Flush(a)
		return
	}
	var buf [64]byte
	name := strconv.AppendInt(append(append(buf[:0], s.src.name...), ".run"...), int64(st.InitialRuns), 10)
	id := fileID(name)
	registerFileID(id, name)
	for left := len(run); left > 0; left -= s.perPage {
		a.AddCPU(cost.ScaleNs(min(left, s.perPage), m.WriteTuple))
		s.src.dsk.WritePage(a, id)
	}
	s.ends = append(s.ends, end)
	s.ids = append(s.ids, id)
}

// radixSort sorts run by key (each word's high 32 bits) with a stable LSD
// radix sort, one pass per key byte, using tmp as scratch. run arrives in
// position order, so equal keys stay in position order: the result is the
// order of sorting the whole words. A byte every key shares costs no pass.
func (s *sorter) radixSort(run, tmp []uint64) {
	h := &s.hist
	*h = [4][256]int32{}
	for _, w := range run {
		k := uint32(w >> 32)
		h[0][uint8(k)]++
		h[1][uint8(k>>8)]++
		h[2][uint8(k>>16)]++
		h[3][uint8(k>>24)]++
	}
	from, to := run, tmp
	for d := range h {
		c := &h[d]
		shift := 32 + 8*uint(d)
		if int(c[uint8(from[0]>>shift)]) == len(from) {
			continue
		}
		var sum int32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, w := range from {
			b := uint8(w >> shift)
			to[c[b]] = w
			c[b]++
		}
		from, to = to, from
	}
	if &from[0] != &run[0] {
		copy(run, from)
	}
}

// merge k-way merges runs [i, j) into dst (last) or into one run of the
// next pass, charging ~log2(k) comparisons plus one move per tuple and all
// page traffic.
func (s *sorter) merge(i, j, level int, last bool) {
	a, m, d, per := s.a, s.m, s.src.dsk, s.perPage
	var outID int64
	if !last {
		var buf [64]byte
		name := strconv.AppendInt(append(append(buf[:0], s.src.name...), ".m"...), int64(level), 10)
		name = strconv.AppendInt(append(name, '.'), int64(i), 10)
		outID = fileID(name)
		registerFileID(outID, name)
	}
	h := &s.h
	h.items, s.curs = h.items[:0], s.curs[:0]
	for r := i; r < j; r++ {
		start, end := s.runStart(r), s.ends[r]
		d.ReadSeq(a, s.ids[r])
		a.AddCPU(m.ReadTuple)
		s.curs = append(s.curs, runCursor{at: start + 1, pageEnd: min(start+per, end), end: end, id: s.ids[r]})
		h.items = append(h.items, mergeItem{w: s.words[start], run: r - i})
	}
	h.init()
	step := cost.ScaleNs(int64(bits.Len(uint(max(j-i-1, 1)))), m.SortCompare) + m.SortMove
	o := s.runStart(i)
	outPageEnd := o + per
	dst := s.dst
	if last {
		// The merge owns dst exclusively, so one lock covers the whole
		// output stream instead of one acquisition per tuple.
		dst.mu.Lock()
	}
	for len(h.items) > 0 {
		it := h.items[0]
		a.AddCPU(step)
		if last {
			// dst.appendLocked, written out so the loop makes no call per
			// tuple: a page is started only once the last one is full.
			a.AddCPU(dst.model.WriteTuple)
			if dst.tail == dst.pageEnd {
				dst.room()
			}
			dst.last[dst.tail] = *s.tupleAt(it.w)
			dst.tail++
			dst.n++
			if dst.tail == dst.pageEnd {
				dst.dsk.WritePage(a, dst.id)
			}
		} else {
			a.AddCPU(m.WriteTuple)
			s.next[o] = it.w
			o++
			if o == outPageEnd {
				d.WritePage(a, outID)
				outPageEnd += per
			}
		}
		c := &s.curs[it.run]
		if c.at == c.end {
			h.popRoot()
			continue
		}
		if c.at == c.pageEnd {
			d.ReadSeq(a, c.id)
			c.pageEnd = min(c.at+per, c.end)
		}
		a.AddCPU(m.ReadTuple)
		h.items[0].w = s.words[c.at]
		c.at++
		h.down(0)
	}
	if last {
		dst.mu.Unlock()
		dst.Flush(a)
		return
	}
	if o != outPageEnd-per {
		d.WritePage(a, outID) // the partial last page
	}
	s.nextEnds = append(s.nextEnds, o)
	s.nextIDs = append(s.nextIDs, outID)
}

// mergeItem is the head word of one run and the run's index in its merge
// group.
type mergeItem struct {
	w   uint64
	run int
}

// mergeHeap is a hand-rolled min-heap over run heads that compares keys
// only (w>>32), never positions. Its sift-down mirrors container/heap's
// down() move for move, so the pop order of equal keys — and therefore the
// byte-exact order of merged output — is that of a container/heap merge of
// whole tuples by key.
type mergeHeap struct {
	items []mergeItem
}

func (h *mergeHeap) less(i, j int) bool {
	return h.items[i].w>>32 < h.items[j].w>>32
}

// down is container/heap's down() specialized to mergeItem.
func (h *mergeHeap) down(i int) {
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

func (h *mergeHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// popRoot is container/heap's Pop: swap the root to the end, restore the
// heap over the shortened prefix, then drop the last element.
func (h *mergeHeap) popRoot() {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.items = h.items[:n]
	h.down(0)
}
