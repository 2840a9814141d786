package wiss

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"gammajoin/internal/cost"
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
// Run formation loads memory-sized chunks and quicksorts them; merging is
// multiway with fan-in limited to the number of memory pages minus one
// output buffer.
func Sort(a *cost.Acct, src, dst *File, attr int, memBytes int64) (SortStats, error) {
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
		sortChunk(a, m, cur, attr)
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
	if st.FitInMemory {
		return st, nil
	}
	if len(runs) == 0 {
		return st, nil // empty input
	}

	// Merge passes.
	level := 0
	for len(runs) > 1 {
		st.MergePasses++
		level++
		var next []*File
		for i := 0; i < len(runs); i += fanin {
			group := runs[i:min(i+fanin, len(runs))]
			var out *File
			if len(runs) <= fanin && i == 0 {
				out = dst
			} else {
				out = NewFile(fmt.Sprintf("%s.m%d.%d", src.Name(), level, i), src.dsk, m)
			}
			mergeRuns(a, m, group, out, attr)
			// The group's runs are private to this Sort call and fully
			// consumed; recycle their pages.
			for _, r := range group {
				r.Recycle()
			}
			if out != dst {
				next = append(next, out)
			}
		}
		if len(next) == 0 {
			return st, nil
		}
		runs = next
	}
	// Single run left but dst not yet written (only happens when pass 0
	// produced exactly one run that did not fit in memory bookkeeping).
	st.MergePasses++
	mergeRuns(a, m, runs, dst, attr)
	for _, r := range runs {
		r.Recycle()
	}
	return st, nil
}

// chunkScratch recycles the key and tuple scratch buffers sortChunk uses to
// apply its permutation.
var chunkScratch = sync.Pool{New: func() any { return new(chunkBufs) }}

type chunkBufs struct {
	keys []uint64
	ts   []tuple.Tuple
}

// sortChunk sorts tuples in memory by attr and charges n*ceil(log2 n)
// comparisons plus n moves. The sort is applied through a key permutation:
// each tuple's sign-biased 32-bit key is packed above its index, so sorting
// the packed words orders ties by original position — exactly the
// permutation a stable sort of the tuples themselves would produce — while
// the sort itself touches only 8-byte words, never whole tuples.
func sortChunk(a *cost.Acct, m *cost.Model, ts []tuple.Tuple, attr int) {
	n := len(ts)
	if n > 1 {
		bufs := chunkScratch.Get().(*chunkBufs)
		if cap(bufs.keys) < n {
			bufs.keys = make([]uint64, n)
			bufs.ts = make([]tuple.Tuple, n)
		}
		keys, scratch := bufs.keys[:n], bufs.ts[:n]
		for i := range keys {
			keys[i] = uint64(uint32(ts[i].Ints[attr])^0x80000000)<<32 | uint64(uint32(i))
		}
		slices.Sort(keys)
		copy(scratch, ts)
		for i, k := range keys {
			ts[i] = scratch[uint32(k)]
		}
		chunkScratch.Put(bufs)
		lg := int64(bits.Len(uint(n - 1)))
		a.AddCPU(cost.ScaleNs(int64(n)*lg, m.SortCompare))
		a.AddCPU(cost.ScaleNs(n, m.SortMove))
	}
}

// mergeItem holds the head of one run by pointer: the pointer aliases the
// run file's page memory (stable until the run is recycled), so heap swaps
// move 16 bytes instead of a whole tuple.
type mergeItem struct {
	t   *tuple.Tuple
	src int
}

// mergeHeap is a hand-rolled min-heap over run heads. Its sift-down mirrors
// container/heap's down() move for move, so the pop order of equal keys —
// and therefore the byte-exact order of merged output — is identical to the
// container/heap implementation it replaces; only the interface-dispatched
// Less/Swap calls per comparison are gone.
type mergeHeap struct {
	items []mergeItem
	attr  int
}

func (h *mergeHeap) less(i, j int) bool {
	return h.items[i].t.Ints[h.attr] < h.items[j].t.Ints[h.attr]
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

// mergeRuns k-way merges the given sorted runs into out, charging ~log2(k)
// comparisons plus one move per tuple, and all page traffic.
func mergeRuns(a *cost.Acct, m *cost.Model, runs []*File, out *File, attr int) {
	cursors := make([]*Cursor, len(runs))
	h := &mergeHeap{attr: attr}
	for i, r := range runs {
		cursors[i] = r.NewCursor(a)
		if t, ok := cursors[i].NextP(); ok {
			h.items = append(h.items, mergeItem{t: t, src: i})
		}
	}
	h.init()
	lg := int64(bits.Len(uint(max(len(runs)-1, 1))))
	// The merge owns out exclusively, so one lock covers the whole output
	// stream instead of one acquisition per tuple.
	out.mu.Lock()
	for len(h.items) > 0 {
		it := h.items[0]
		a.AddCPU(cost.ScaleNs(lg, m.SortCompare) + m.SortMove)
		out.appendLocked(a, it.t)
		if t, ok := cursors[it.src].NextP(); ok {
			h.items[0] = mergeItem{t: t, src: it.src}
			h.down(0)
		} else {
			h.popRoot()
		}
	}
	out.mu.Unlock()
	out.Flush(a)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
