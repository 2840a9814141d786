// Package wiss is a small reproduction of the Wisconsin Storage System
// services that Gamma's operators rely on: page-structured sequential files
// with buffered appends and read-ahead scans, an external merge-sort
// utility, and B+-tree indices.
//
// Files store tuples in memory but are organized into pages; every page
// flushed or fetched is charged to a cost.Acct through the owning simulated
// disk, so file activity is visible in simulated response times.
package wiss

import (
	"fmt"
	"sync"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/slicepool"
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
// cross-name collision. fnv64a collisions are astronomically unlikely for
// the simulator's file-name population, so a hit is almost certainly a
// naming bug (two code paths generating the same "unique" name). A name
// already registered, as every sort run's name is after the first sort of
// its file, is looked up without allocating.
func registerFileID[T string | []byte](id int64, name T) {
	idOwnersMu.Lock()
	defer idOwnersMu.Unlock()
	owner, ok := idOwners[id]
	if ok && owner == string(name) {
		return
	}
	if ok {
		panic(fmt.Sprintf(
			"wiss: file id collision: %q and %q both hash to %#x; "+
				"file names must be unique so fault schedules and disk "+
				"accounting stay per-file", owner, string(name), uint64(id)))
	}
	idOwners[id] = string(name)
}

// File is a page-structured sequential file of fixed-size tuples on one
// simulated disk.
type File struct {
	id      int64
	name    string
	dsk     *disk.Disk
	model   *cost.Model
	perPage int

	mu    sync.Mutex
	pages [][]tuple.Tuple
	n     int64
}

// NewFile creates an empty file on disk d. It fails loudly (panics) if the
// name's hashed id collides with a different name seen by this process.
func NewFile(name string, d *disk.Disk, m *cost.Model) *File {
	id := fileID(name)
	registerFileID(id, name)
	return &File{
		id:      id,
		name:    name,
		dsk:     d,
		model:   m,
		perPage: m.TuplesPerPage(tuple.Bytes),
	}
}

// ID returns the unique file id (used for disk arm-movement accounting).
func (f *File) ID() int64 { return f.id }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Disk returns the disk the file lives on.
func (f *File) Disk() *disk.Disk { return f.dsk }

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
	return len(f.pages)
}

// pagePool recycles page backing arrays across files. Only files whose
// pages are provably unreferenced hand pages back (File.Recycle); everything
// else lets the garbage collector reclaim them as before.
var pagePool slicepool.Pool[tuple.Tuple]

// getPage returns an empty page with at least perPage capacity.
func getPage(perPage int) []tuple.Tuple {
	pg := pagePool.Get()
	if cap(pg) < perPage {
		return make([]tuple.Tuple, 0, perPage)
	}
	return pg[:0]
}

// Recycle returns every page to the package page pool and empties the file.
// Only call it when no pointer into the file's pages can still be live —
// cursors, Scan callbacks, and At results all alias page memory. A join
// recycles its temp files when its attempt ends, not before: a redo may
// re-scan them.
func (f *File) Recycle() {
	f.mu.Lock()
	for _, pg := range f.pages {
		pagePool.Put(pg)
	}
	f.pages, f.n = nil, 0
	f.mu.Unlock()
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
	last := len(f.pages) - 1
	if last < 0 || len(f.pages[last]) >= f.perPage {
		f.pages = append(f.pages, getPage(f.perPage))
		last++
	}
	f.pages[last] = append(f.pages[last], *t)
	f.n++
	if len(f.pages[last]) >= f.perPage {
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
		last := len(f.pages) - 1
		if last < 0 || len(f.pages[last]) >= f.perPage {
			f.pages = append(f.pages, getPage(f.perPage))
			last++
		}
		// Copy a page-filling chunk at once. The WriteTuple charges within
		// the chunk are commutative (no Note lands between them), so one
		// scaled charge equals the per-tuple sum exactly, and the page write
		// still lands at the same point in the charge sequence.
		room := f.perPage - len(f.pages[last])
		k := len(tuples)
		if k > room {
			k = room
		}
		a.AddCPU(cost.ScaleNs(k, f.model.WriteTuple))
		f.pages[last] = append(f.pages[last], tuples[:k]...)
		f.n += int64(k)
		tuples = tuples[k:]
		if len(f.pages[last]) >= f.perPage {
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
	partial := len(f.pages) > 0 && len(f.pages[len(f.pages)-1]) < f.perPage
	f.mu.Unlock()
	if partial {
		f.dsk.WritePage(a, f.id)
	}
}

// Scan iterates the file sequentially with one-page read-ahead semantics:
// each page is charged as a sequential read, each tuple as a ReadTuple. The
// callback may return false to stop early; pages past the stopping point are
// not charged (this is how the sort-merge join's early termination on skewed
// inner relations saves I/O).
func (f *File) Scan(a *cost.Acct, fn func(t *tuple.Tuple) bool) {
	f.mu.Lock()
	pages := f.pages
	f.mu.Unlock()
	readNs := f.model.ReadTuple
	for _, pg := range pages {
		f.dsk.ReadSeq(a, f.id)
		for i := range pg {
			a.AddCPU(readNs)
			if !fn(&pg[i]) {
				return
			}
		}
	}
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
	return &f.pages[pos/int64(f.perPage)][pos%int64(f.perPage)], true
}

// UpdateWhere scans the file, applies mutate to every tuple match accepts,
// and charges one page write per dirtied page — the in-place update path of
// Gamma's update operators. It returns the number of tuples modified.
func (f *File) UpdateWhere(a *cost.Acct, match func(t *tuple.Tuple) bool,
	mutate func(t *tuple.Tuple)) int64 {
	f.mu.Lock()
	pages := f.pages
	f.mu.Unlock()
	var updated int64
	for _, pg := range pages {
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
	return updated
}

// Cursor is a forward-only reader over a file, used by merge joins and
// block joins. It charges page reads and tuple fetches as it advances.
// The page directory is snapshotted on the first advance (files are fully
// written before cursors read them), so Next costs no lock acquisition.
type Cursor struct {
	f      *File
	a      *cost.Acct
	pages  [][]tuple.Tuple
	page   int
	slot   int
	readNs cost.SimNs // cached f.model.ReadTuple (charged once per tuple)
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
// file's page memory and stays valid while the file is neither mutated nor
// recycled (merge inputs are fully written before cursors read them).
func (c *Cursor) NextP() (t *tuple.Tuple, ok bool) {
	pages := c.pages
	if pages == nil {
		c.f.mu.Lock()
		c.pages = c.f.pages
		c.f.mu.Unlock()
		pages = c.pages
		c.readNs = c.f.model.ReadTuple
	}
	for c.page < len(pages) {
		pg := pages[c.page]
		if c.slot == 0 && len(pg) > 0 {
			c.f.dsk.ReadSeq(c.a, c.f.id)
		}
		if c.slot < len(pg) {
			c.a.AddCPU(c.readNs)
			t = &pg[c.slot]
			c.slot++
			return t, true
		}
		c.page++
		c.slot = 0
	}
	return nil, false
}

// Reset rewinds the cursor to the beginning (subsequent reads are charged
// again, as the pages must be re-fetched). The page-directory snapshot is
// dropped so a reset cursor observes appends made since it was created.
func (c *Cursor) Reset() { c.pages, c.page, c.slot = nil, 0, 0 }
