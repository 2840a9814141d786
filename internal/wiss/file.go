// Package wiss is a small reproduction of the Wisconsin Storage System
// services that Gamma's operators rely on: page-structured sequential files
// with buffered appends and read-ahead scans, an external merge-sort
// utility, and B+-tree indices.
//
// Files store tuples in memory but are organized into pages; every page
// flushed or fetched is charged to a cost.Acct through the owning simulated
// disk, so file activity is visible in simulated response times. On the
// host a file's pages sit back to back in fixed-size extents of
// extentPages pages each.
package wiss

import (
	"fmt"
	"sync"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/freelist"
	"gammajoin/internal/tuple"
)

// fileID derives a stable id from the file name. Names are unique within a
// run (fragments, temp files, and sort runs all carry distinguishing
// suffixes), and deriving the id from the name rather than a process-global
// counter keeps ids — and everything keyed on them, like disk arm-movement
// accounting and fault schedules — identical across repeated runs in one
// process.
//
// The hash is 64-bit FNV-1a, written out so a name held in a byte buffer
// hashes without allocating.
func fileID[T string | []byte](name T) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h)
}

// idOwners guards against two distinct file names hashing to the same id:
// a silent collision would make the colliding files share a fault schedule
// and arm-movement identity, corrupting the determinism argument without
// any visible symptom. Registration is process-global because ids are —
// repeated runs re-register the same name/id pairs, which is fine.
var (
	idOwnersMu sync.Mutex
	idOwners   = map[int64]string{}
)

// registerFileID records that name owns id, panicking loudly on a
// cross-name collision, and returns the name as the registry holds it.
// fnv64a collisions are astronomically unlikely for the simulator's
// file-name population, so a hit is almost certainly a naming bug (two code
// paths generating the same "unique" name). A name already registered, as
// every sort run's name is after the first sort of its file, is looked up
// without allocating.
func registerFileID[T string | []byte](id int64, name T) string {
	idOwnersMu.Lock()
	defer idOwnersMu.Unlock()
	owner, ok := idOwners[id]
	if ok && owner == string(name) {
		return owner
	}
	if ok {
		panic(fmt.Sprintf(
			"wiss: file id collision: %q and %q both hash to %#x; "+
				"file names must be unique so fault schedules and disk "+
				"accounting stay per-file", owner, string(name), uint64(id)))
	}
	owner = string(name)
	idOwners[id] = owner
	return owner
}

// InternName registers a file name held in a byte buffer and returns it as
// a string. A name registered before comes back as the string the registry
// already holds, so a caller that builds a recurring name, such as a temp
// file's, in a reused buffer allocates only the first time.
func InternName(name []byte) string { return registerFileID(fileID(name), name) }

// extentPages is how many consecutive pages one extent holds. Larger
// extents read and write longer stretches of memory and need fewer
// directory entries, but a join writes many short temp files (a bucket,
// an overflow level), each holding at least one extent: at 39 tuples a
// page, 8 pages is 16 KB. 16-page extents raised the bytes allocated per
// join on a workload that builds a fresh cluster on every pass, and
// 32-page extents its peak heap (EXPERIMENTS.md, "Wall-clock").
const extentPages = 8

// extent holds extentPages consecutive pages of one file: page p of the
// file is tuples [p*perPage, (p+1)*perPage) of its extents laid end to end.
type extent struct {
	t []tuple.Tuple // extentPages*perPage tuples, past the file's end unused
}

// extentPool recycles extents across files. Only files whose tuples are
// provably unreferenced hand extents back (File.Recycle); everything else
// lets the garbage collector reclaim them.
var extentPool freelist.List[*extent]

// getExtent returns an extent of n tuples.
func getExtent(n int) *extent {
	if e, ok := extentPool.Get(); ok && cap(e.t) >= n {
		e.t = e.t[:n]
		return e
	}
	return &extent{t: make([]tuple.Tuple, n)}
}

// File is a page-structured sequential file of fixed-size tuples on one
// simulated disk.
type File struct {
	id      int64
	name    string
	dsk     *disk.Disk
	model   *cost.Model
	perPage int
	extLen  int // tuples per extent: extentPages*perPage

	mu      sync.Mutex
	extents []*extent // starts in dir, so a short file's directory costs no allocation
	dir     [4]*extent
	n       int64
	// last is the last extent's tuples. tail counts those in use and
	// pageEnd is where the page being filled ends, so tail == pageEnd when
	// no page is partly filled. A file without extents has tail ==
	// pageEnd == extLen, as if its last extent were full.
	last          []tuple.Tuple
	tail, pageEnd int
}

// NewFile creates an empty file on disk d. It fails loudly (panics) if the
// name's hashed id collides with a different name seen by this process.
func NewFile(name string, d *disk.Disk, m *cost.Model) *File {
	id := fileID(name)
	registerFileID(id, name)
	perPage := m.TuplesPerPage(tuple.Bytes)
	extLen := extentPages * perPage
	f := &File{
		id:      id,
		name:    name,
		dsk:     d,
		model:   m,
		perPage: perPage,
		extLen:  extLen,
		tail:    extLen,
		pageEnd: extLen,
	}
	f.extents = f.dir[:0]
	return f
}

// ID returns the unique file id (used for disk arm-movement accounting).
func (f *File) ID() int64 { return f.id }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Len returns the number of tuples in the file (including any buffered in a
// partially full last page).
func (f *File) Len() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Pages returns the number of pages the file occupies.
func (f *File) Pages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int((f.n + int64(f.perPage) - 1) / int64(f.perPage))
}

// Recycle returns every extent to the package extent pool and empties the
// file. Only call it when no pointer into the file's tuples can still be
// live — cursors, Scan callbacks, and At results all alias extent memory.
// A join recycles its temp files when its attempt ends, not before: a redo
// may re-scan them.
func (f *File) Recycle() {
	f.mu.Lock()
	for _, e := range f.extents {
		extentPool.Put(e)
	}
	clear(f.extents)
	f.extents, f.n, f.last = f.extents[:0], 0, nil
	f.tail, f.pageEnd = f.extLen, f.extLen
	f.mu.Unlock()
}

// room returns how many tuples still fit on the page being filled, first
// starting a page, and an extent when the last one is full, if none is
// partly filled. f.mu must be held.
func (f *File) room() int {
	if f.tail == f.pageEnd {
		if f.tail == f.extLen {
			e := getExtent(f.extLen)
			f.extents = append(f.extents, e)
			f.last, f.tail, f.pageEnd = e.t, 0, 0
		}
		f.pageEnd += f.perPage
	}
	return f.pageEnd - f.tail
}

// Append adds one tuple, charging the tuple copy to a and a page write when
// a page fills. Callers must Flush once the stream ends to persist (and
// charge) the final partial page.
func (f *File) Append(a *cost.Acct, t tuple.Tuple) {
	f.appendOne(a, &t)
}

// appendOne is Append without the by-value argument copy; the tuple is
// copied exactly once, into the page.
func (f *File) appendOne(a *cost.Acct, t *tuple.Tuple) {
	f.mu.Lock()
	f.appendLocked(a, t)
	f.mu.Unlock()
}

// appendLocked is the body of appendOne with f.mu already held, so a writer
// that owns the file exclusively (the sort's merge loop) can amortize the
// lock over a whole output stream.
func (f *File) appendLocked(a *cost.Acct, t *tuple.Tuple) {
	a.AddCPU(f.model.WriteTuple)
	f.room()
	f.last[f.tail] = *t
	f.tail++
	f.n++
	if f.tail == f.pageEnd {
		f.dsk.WritePage(a, f.id)
	}
}

// AppendBatch adds a run of tuples under one lock acquisition, charging
// exactly what the equivalent sequence of Append calls would: one
// WriteTuple per tuple, with a page write landing between the same two
// tuple copies whenever a page fills. Callers must Flush once the stream
// ends to persist (and charge) the final partial page.
func (f *File) AppendBatch(a *cost.Acct, tuples []tuple.Tuple) {
	if len(tuples) == 0 {
		return
	}
	f.mu.Lock()
	for len(tuples) > 0 {
		// Copy a page-filling chunk at once. The WriteTuple charges within
		// the chunk are commutative (no Note lands between them), so one
		// scaled charge equals the per-tuple sum exactly, and the page write
		// still lands at the same point in the charge sequence.
		room := f.room()
		k := copy(f.last[f.tail:f.tail+room], tuples)
		a.AddCPU(cost.ScaleNs(k, f.model.WriteTuple))
		f.tail += k
		f.n += int64(k)
		tuples = tuples[k:]
		if f.tail == f.pageEnd {
			f.dsk.WritePage(a, f.id)
		}
	}
	f.mu.Unlock()
}

// AppendSelected appends tuples[i] for each i in sel, in sel's order,
// under one lock acquisition, charging exactly what the equivalent sequence
// of Append calls would. A filtering writer uses it to store the survivors
// of one packet at once.
func (f *File) AppendSelected(a *cost.Acct, tuples []tuple.Tuple, sel []int32) {
	if len(sel) == 0 {
		return
	}
	f.mu.Lock()
	for _, i := range sel {
		f.appendLocked(a, &tuples[i])
	}
	f.mu.Unlock()
}

// Flush charges the write of a trailing partial page, if any. Idempotent
// only in the sense that calling it with no new appends charges at most one
// extra partial-page write per call, so call it exactly once per writer.
func (f *File) Flush(a *cost.Acct) {
	f.mu.Lock()
	partial := f.tail != f.pageEnd
	f.mu.Unlock()
	if partial {
		f.dsk.WritePage(a, f.id)
	}
}

// pages returns an iterator over the file's pages as they stand now.
// Appends made later do not show in it.
func (f *File) pages() pageIter {
	f.mu.Lock()
	defer f.mu.Unlock()
	return pageIter{exts: f.extents, left: f.n, per: f.perPage}
}

// pageIter walks a file's pages in order: an extent's live tuples, cut
// into pages of per tuples, with no division.
type pageIter struct {
	exts []*extent     // the extents after cur
	cur  []tuple.Tuple // the current extent's tuples not yet returned
	left int64         // live tuples in exts
	per  int
}

// next returns the next page's tuples, or ok=false past the last page.
func (it *pageIter) next() (pg []tuple.Tuple, ok bool) {
	if len(it.cur) == 0 {
		if it.left == 0 {
			return nil, false
		}
		ts := it.exts[0].t
		if int64(len(ts)) > it.left {
			ts = ts[:it.left]
		}
		it.exts, it.cur, it.left = it.exts[1:], ts, it.left-int64(len(ts))
	}
	pg = it.cur[:min(it.per, len(it.cur))]
	it.cur = it.cur[len(pg):]
	return pg, true
}

// ScanPages iterates the file a page at a time with one-page read-ahead
// semantics: each page is charged as a sequential read and then handed to
// fn whole, in file order. fn charges its own per-tuple work, a ReadTuple
// per tuple it reads included, and may return false to stop early; pages
// past the stopping point are not charged. The page aliases the file's
// extent memory, as a Scan callback's tuple does.
func (f *File) ScanPages(a *cost.Acct, fn func(pg []tuple.Tuple) bool) {
	it := f.pages()
	for {
		pg, ok := it.next()
		if !ok {
			return
		}
		f.dsk.ReadSeq(a, f.id)
		if !fn(pg) {
			return
		}
	}
}

// Scan iterates the file sequentially with one-page read-ahead semantics:
// each page is charged as a sequential read, each tuple as a ReadTuple. The
// callback may return false to stop early; pages past the stopping point are
// not charged (this is how the sort-merge join's early termination on skewed
// inner relations saves I/O).
func (f *File) Scan(a *cost.Acct, fn func(t *tuple.Tuple) bool) {
	readNs := f.model.ReadTuple
	f.ScanPages(a, func(pg []tuple.Tuple) bool {
		for i := range pg {
			a.AddCPU(readNs)
			if !fn(&pg[i]) {
				return false
			}
		}
		return true
	})
}

// At returns a pointer to the tuple at a linear position (page-major),
// without charging any cost: callers using positional access (index
// lookups) charge their own page reads.
func (f *File) At(pos int64) (*tuple.Tuple, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if pos < 0 || pos >= f.n {
		return nil, false
	}
	e := pos / int64(f.extLen)
	return &f.extents[e].t[pos-e*int64(f.extLen)], true
}

// UpdateWhere scans the file, applies mutate to every tuple match accepts,
// and charges one page write per dirtied page — the in-place update path of
// Gamma's update operators. It returns the number of tuples modified.
func (f *File) UpdateWhere(a *cost.Acct, match func(t *tuple.Tuple) bool,
	mutate func(t *tuple.Tuple)) int64 {
	it := f.pages()
	var updated int64
	for {
		pg, ok := it.next()
		if !ok {
			return updated
		}
		f.dsk.ReadSeq(a, f.id)
		dirty := false
		for i := range pg {
			a.AddCPU(f.model.ReadTuple)
			if match(&pg[i]) {
				a.AddCPU(f.model.WriteTuple)
				mutate(&pg[i])
				dirty = true
				updated++
			}
		}
		if dirty {
			f.dsk.WritePage(a, f.id)
		}
	}
}

// Cursor is a forward-only reader over a file, used by merge joins and
// block joins. It charges page reads and tuple fetches as it advances.
// The file's pages are snapshotted on the first advance (files are fully
// written before cursors read them), so Next costs no lock acquisition.
type Cursor struct {
	f      *File
	a      *cost.Acct
	it     pageIter
	pg     []tuple.Tuple // the current page's tuples not yet returned
	held   bool          // it holds a snapshot of a non-empty file
	readNs cost.SimNs    // cached f.model.ReadTuple (charged once per tuple)
}

// NewCursor returns a cursor positioned before the first tuple.
func (f *File) NewCursor(a *cost.Acct) *Cursor {
	return &Cursor{f: f, a: a}
}

// Next returns the next tuple, or ok=false at end of file.
func (c *Cursor) Next() (t tuple.Tuple, ok bool) {
	p, ok := c.NextP()
	if !ok {
		return tuple.Tuple{}, false
	}
	return *p, true
}

// NextP is Next without the by-value copy: the returned pointer aliases the
// file's extent memory and stays valid while the file is neither mutated
// nor recycled (merge inputs are fully written before cursors read them).
func (c *Cursor) NextP() (t *tuple.Tuple, ok bool) {
	if len(c.pg) == 0 {
		if !c.held {
			c.it = c.f.pages()
			c.held = c.it.left > 0
			c.readNs = c.f.model.ReadTuple
		}
		if c.pg, ok = c.it.next(); !ok {
			return nil, false
		}
		c.f.dsk.ReadSeq(c.a, c.f.id)
	}
	c.a.AddCPU(c.readNs)
	t, c.pg = &c.pg[0], c.pg[1:]
	return t, true
}

// Reset rewinds the cursor to the beginning (subsequent reads are charged
// again, as the pages must be re-fetched). The snapshot is dropped so a
// reset cursor observes appends made since it was created.
func (c *Cursor) Reset() { c.it, c.pg, c.held = pageIter{}, nil, false }
