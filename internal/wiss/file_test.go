package wiss

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/fault"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

func testFile(t *testing.T, name string) (*File, *disk.Disk, *cost.Model) {
	t.Helper()
	m := cost.Default()
	d := disk.New(0, m)
	return NewFile(name, d, m), d, m
}

func mkTuple(u1 int32) tuple.Tuple {
	var tp tuple.Tuple
	tp.SetInt(tuple.Unique1, u1)
	tp.SetInt(tuple.Unique2, u1*7)
	return tp
}

// TestRecycledExtentOutlivesCollections: an extent handed back by Recycle
// stays on the free list through collections, so the next file to need one
// reuses it whenever the collector last ran.
func TestRecycledExtentOutlivesCollections(t *testing.T) {
	f, d, m := testFile(t, "recycled-extent.a")
	var a cost.Acct
	f.Append(&a, mkTuple(1))
	e := f.extents[0]
	f.Recycle()
	runtime.GC()
	runtime.GC()
	g := NewFile("recycled-extent.b", d, m)
	g.Append(&a, mkTuple(2))
	defer g.Recycle()
	if g.extents[0] != e {
		t.Fatal("a recycled extent did not survive two collections")
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	f, _, _ := testFile(t, "t")
	var a cost.Acct
	const n = 100
	for i := 0; i < n; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	var got []int32
	f.Scan(&a, func(tp *tuple.Tuple) bool {
		got = append(got, tp.Int(tuple.Unique1))
		return true
	})
	if len(got) != n {
		t.Fatalf("scanned %d tuples", len(got))
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("tuple %d = %d (order not preserved)", i, v)
		}
	}
}

func TestPageAccounting(t *testing.T) {
	f, d, m := testFile(t, "t")
	var a cost.Acct
	perPage := m.TuplesPerPage(tuple.Bytes) // 39 with defaults
	// Exactly two full pages plus one tuple.
	n := perPage*2 + 1
	for i := 0; i < n; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	if w := d.Counters().PagesWritten; w != 2 {
		t.Fatalf("full pages written = %d, want 2", w)
	}
	f.Flush(&a)
	if w := d.Counters().PagesWritten; w != 3 {
		t.Fatalf("pages written after flush = %d, want 3", w)
	}
	if f.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", f.Pages())
	}
	before := d.Counters().PagesRead
	f.Scan(&a, func(*tuple.Tuple) bool { return true })
	if r := d.Counters().PagesRead - before; r != 3 {
		t.Fatalf("pages read = %d, want 3", r)
	}
}

func TestScanEarlyStopSkipsPages(t *testing.T) {
	f, d, m := testFile(t, "t")
	var a cost.Acct
	perPage := m.TuplesPerPage(tuple.Bytes)
	for i := 0; i < perPage*10; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	before := d.Counters().PagesRead
	seen := 0
	f.Scan(&a, func(*tuple.Tuple) bool {
		seen++
		return seen < perPage // stop within the first page
	})
	if r := d.Counters().PagesRead - before; r != 1 {
		t.Fatalf("early-stopped scan read %d pages, want 1", r)
	}
}

func TestScanChargesCPU(t *testing.T) {
	f, _, m := testFile(t, "t")
	var w cost.Acct
	for i := 0; i < 10; i++ {
		f.Append(&w, mkTuple(int32(i)))
	}
	f.Flush(&w)
	if w.CPU != 10*m.WriteTuple {
		t.Fatalf("append CPU = %d, want %d", w.CPU, 10*m.WriteTuple)
	}
	var r cost.Acct
	f.Scan(&r, func(*tuple.Tuple) bool { return true })
	if r.CPU != 10*m.ReadTuple {
		t.Fatalf("scan CPU = %d, want %d", r.CPU, 10*m.ReadTuple)
	}
}

func TestCursor(t *testing.T) {
	f, _, _ := testFile(t, "t")
	var a cost.Acct
	const n = 95
	for i := 0; i < n; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	c := f.NewCursor(&a)
	for i := 0; i < n; i++ {
		tp, ok := c.Next()
		if !ok {
			t.Fatalf("cursor ended early at %d", i)
		}
		if tp.Int(tuple.Unique1) != int32(i) {
			t.Fatalf("cursor tuple %d = %d", i, tp.Int(tuple.Unique1))
		}
	}
	if _, ok := c.Next(); ok {
		t.Fatal("cursor did not end")
	}
	c.Reset()
	if tp, ok := c.Next(); !ok || tp.Int(tuple.Unique1) != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestEmptyFile(t *testing.T) {
	f, _, _ := testFile(t, "empty")
	var a cost.Acct
	f.Flush(&a) // no-op
	if a.Disk != 0 {
		t.Fatal("flushing empty file charged disk time")
	}
	f.Scan(&a, func(*tuple.Tuple) bool { t.Fatal("callback on empty file"); return false })
	if _, ok := f.NewCursor(&a).Next(); ok {
		t.Fatal("cursor on empty file returned a tuple")
	}
}

func TestFileIDsUnique(t *testing.T) {
	f1, _, _ := testFile(t, "a")
	f2, _, _ := testFile(t, "b")
	if f1.ID() == f2.ID() {
		t.Fatal("file ids must be unique")
	}
	if f1.Name() != "a" || f2.Name() != "b" {
		t.Fatal("names wrong")
	}
	// Ids are derived from names, so recreating a file reproduces its id —
	// the property that keeps arm-movement and fault accounting identical
	// across repeated runs in one process.
	f3, _, _ := testFile(t, "a")
	if f3.ID() != f1.ID() {
		t.Fatal("same name must yield the same id")
	}
}

func TestAt(t *testing.T) {
	f, _, _ := testFile(t, "t")
	var a cost.Acct
	for i := 0; i < 80; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	for _, pos := range []int64{0, 38, 39, 79} {
		tp, ok := f.At(pos)
		if !ok || tp.Int(tuple.Unique1) != int32(pos) {
			t.Fatalf("At(%d) = %v, %v", pos, tp, ok)
		}
	}
	if _, ok := f.At(-1); ok {
		t.Fatal("At(-1) succeeded")
	}
	if _, ok := f.At(80); ok {
		t.Fatal("At past end succeeded")
	}
}

func TestUpdateWhere(t *testing.T) {
	f, d, m := testFile(t, "t")
	var a cost.Acct
	perPage := m.TuplesPerPage(tuple.Bytes)
	for i := 0; i < perPage*3; i++ {
		f.Append(&a, mkTuple(int32(i)))
	}
	f.Flush(&a)
	before := d.Counters()
	var b cost.Acct
	// Update only tuples on the first page.
	n := f.UpdateWhere(&b,
		func(tp *tuple.Tuple) bool { return tp.Int(tuple.Unique1) < int32(perPage) },
		func(tp *tuple.Tuple) { tp.SetInt(tuple.Unique2, -1) })
	if n != int64(perPage) {
		t.Fatalf("updated %d, want %d", n, perPage)
	}
	diff := d.Counters().Sub(before)
	if diff.PagesWritten != 1 {
		t.Fatalf("dirty pages written = %d, want 1", diff.PagesWritten)
	}
	if diff.PagesRead != 3 {
		t.Fatalf("pages read = %d, want 3", diff.PagesRead)
	}
	// Mutations visible.
	count := 0
	f.Scan(&b, func(tp *tuple.Tuple) bool {
		if tp.Int(tuple.Unique2) == -1 {
			count++
		}
		return true
	})
	if count != perPage {
		t.Fatalf("visible mutations = %d", count)
	}
	// No matches -> no writes.
	before = d.Counters()
	if n := f.UpdateWhere(&b, func(*tuple.Tuple) bool { return false }, func(*tuple.Tuple) {}); n != 0 {
		t.Fatalf("phantom updates: %d", n)
	}
	if w := d.Counters().Sub(before).PagesWritten; w != 0 {
		t.Fatalf("no-op update wrote %d pages", w)
	}
}

// TestAppendSelectedMatchesAppend: appending a packet's selected tuples
// under one lock stores, charges and writes pages exactly as one Append per
// selected tuple does, across page boundaries and with empty selections.
func TestAppendSelectedMatchesAppend(t *testing.T) {
	one, dOne, _ := testFile(t, "sel-one")
	sel, dSel, _ := testFile(t, "sel-batch")
	var aOne, aSel cost.Acct
	var keep []int32
	for p := 0; p < 60; p++ {
		pkt := make([]tuple.Tuple, 9)
		keep = keep[:0]
		for i := range pkt {
			pkt[i] = mkTuple(int32(p*9 + i))
			if (p*9+i)%3 != 0 && p%7 != 0 {
				keep = append(keep, int32(i))
			}
		}
		for _, i := range keep {
			one.Append(&aOne, pkt[i])
		}
		sel.AppendSelected(&aSel, pkt, keep)
	}
	one.Flush(&aOne)
	sel.Flush(&aSel)
	if aOne.CPU != aSel.CPU || aOne.Disk != aSel.Disk || aOne.Net != aSel.Net {
		t.Fatalf("AppendSelected charged %+v, Append %+v", aSel, aOne)
	}
	if dOne.Counters() != dSel.Counters() {
		t.Fatalf("disk counters %+v after AppendSelected, %+v after Append", dSel.Counters(), dOne.Counters())
	}
	if one.Len() != sel.Len() || one.Pages() != sel.Pages() || one.Len() == 0 {
		t.Fatalf("AppendSelected stored %d tuples in %d pages, Append %d in %d", sel.Len(), sel.Pages(), one.Len(), one.Pages())
	}
	for i := int64(0); i < one.Len(); i++ {
		x, _ := one.At(i)
		y, _ := sel.At(i)
		if *x != *y {
			t.Fatalf("tuple %d differs: %d vs %d", i, y.Int(tuple.Unique1), x.Int(tuple.Unique1))
		}
	}
}

// refFile is the page-directory File that extent-backed files replaced,
// kept as the reference the differential tests hold File to: every page is
// its own slice in a directory that grows by append.
type refFile struct {
	id      int64
	dsk     *disk.Disk
	model   *cost.Model
	perPage int
	pages   [][]tuple.Tuple
	n       int64
}

func newRefFile(name string, d *disk.Disk, m *cost.Model) *refFile {
	id := fileID(name)
	registerFileID(id, name)
	return &refFile{id: id, dsk: d, model: m, perPage: m.TuplesPerPage(tuple.Bytes)}
}

func (f *refFile) Len() int64 { return f.n }

func (f *refFile) Pages() int { return len(f.pages) }

func (f *refFile) Recycle() { f.pages, f.n = nil, 0 }

func (f *refFile) Append(a *cost.Acct, t tuple.Tuple) { f.appendOne(a, &t) }

func (f *refFile) appendOne(a *cost.Acct, t *tuple.Tuple) {
	a.AddCPU(f.model.WriteTuple)
	last := len(f.pages) - 1
	if last < 0 || len(f.pages[last]) >= f.perPage {
		f.pages = append(f.pages, make([]tuple.Tuple, 0, f.perPage))
		last++
	}
	f.pages[last] = append(f.pages[last], *t)
	f.n++
	if len(f.pages[last]) >= f.perPage {
		f.dsk.WritePage(a, f.id)
	}
}

func (f *refFile) AppendBatch(a *cost.Acct, tuples []tuple.Tuple) {
	for len(tuples) > 0 {
		last := len(f.pages) - 1
		if last < 0 || len(f.pages[last]) >= f.perPage {
			f.pages = append(f.pages, make([]tuple.Tuple, 0, f.perPage))
			last++
		}
		k := min(len(tuples), f.perPage-len(f.pages[last]))
		a.AddCPU(cost.ScaleNs(k, f.model.WriteTuple))
		f.pages[last] = append(f.pages[last], tuples[:k]...)
		f.n += int64(k)
		tuples = tuples[k:]
		if len(f.pages[last]) >= f.perPage {
			f.dsk.WritePage(a, f.id)
		}
	}
}

func (f *refFile) AppendSelected(a *cost.Acct, tuples []tuple.Tuple, sel []int32) {
	for _, i := range sel {
		f.appendOne(a, &tuples[i])
	}
}

func (f *refFile) Flush(a *cost.Acct) {
	if len(f.pages) > 0 && len(f.pages[len(f.pages)-1]) < f.perPage {
		f.dsk.WritePage(a, f.id)
	}
}

func (f *refFile) Scan(a *cost.Acct, fn func(t *tuple.Tuple) bool) {
	for _, pg := range f.pages {
		f.dsk.ReadSeq(a, f.id)
		for i := range pg {
			a.AddCPU(f.model.ReadTuple)
			if !fn(&pg[i]) {
				return
			}
		}
	}
}

func (f *refFile) At(pos int64) (*tuple.Tuple, bool) {
	if pos < 0 || pos >= f.n {
		return nil, false
	}
	return &f.pages[pos/int64(f.perPage)][pos%int64(f.perPage)], true
}

func (f *refFile) UpdateWhere(a *cost.Acct, match func(t *tuple.Tuple) bool,
	mutate func(t *tuple.Tuple)) int64 {
	var updated int64
	for _, pg := range f.pages {
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

// refCursor snapshots the page directory on its first advance; a snapshot
// of a file without pages is taken again on the next advance.
type refCursor struct {
	f          *refFile
	a          *cost.Acct
	pages      [][]tuple.Tuple
	page, slot int
}

func (f *refFile) NewCursor(a *cost.Acct) *refCursor { return &refCursor{f: f, a: a} }

func (c *refCursor) Next() (tuple.Tuple, bool) {
	p, ok := c.NextP()
	if !ok {
		return tuple.Tuple{}, false
	}
	return *p, true
}

func (c *refCursor) NextP() (*tuple.Tuple, bool) {
	if c.pages == nil {
		c.pages = c.f.pages
	}
	for c.page < len(c.pages) {
		pg := c.pages[c.page]
		if c.slot == 0 && len(pg) > 0 {
			c.f.dsk.ReadSeq(c.a, c.f.id)
		}
		if c.slot < len(pg) {
			c.a.AddCPU(c.f.model.ReadTuple)
			c.slot++
			return &pg[c.slot-1], true
		}
		c.page++
		c.slot = 0
	}
	return nil, false
}

func (c *refCursor) Reset() { c.pages, c.page, c.slot = nil, 0, 0 }

// fileUnderTest is the API File and refFile share; cursorUnderTest is their
// cursors'.
type fileUnderTest interface {
	Len() int64
	Pages() int
	Recycle()
	Append(a *cost.Acct, t tuple.Tuple)
	AppendBatch(a *cost.Acct, tuples []tuple.Tuple)
	AppendSelected(a *cost.Acct, tuples []tuple.Tuple, sel []int32)
	Flush(a *cost.Acct)
	Scan(a *cost.Acct, fn func(t *tuple.Tuple) bool)
	At(pos int64) (*tuple.Tuple, bool)
	UpdateWhere(a *cost.Acct, match func(t *tuple.Tuple) bool, mutate func(t *tuple.Tuple)) int64
}

type cursorUnderTest interface {
	Next() (tuple.Tuple, bool)
	NextP() (*tuple.Tuple, bool)
	Reset()
}

func cursorOf(f fileUnderTest, a *cost.Acct) cursorUnderTest {
	if f, ok := f.(*File); ok {
		return f.NewCursor(a)
	}
	return f.(*refFile).NewCursor(a)
}

// fileOpKind names one step of a differential file workload.
type fileOpKind int

const (
	opAppend fileOpKind = iota
	opAppendBatch
	opAppendSelected
	opFlush
	opScan
	opCursorNew
	opCursorNext
	opCursorReset
	opAt
	opUpdate
	opRecycle
	numFileOps
)

// fileOp is one step. n is the batch size, the tuples a scan or cursor
// reads before stopping (-1: to the end), the position At asks for, or the
// modulus UpdateWhere matches on; sel is AppendSelected's selection.
type fileOp struct {
	kind fileOpKind
	n    int
	sel  []int32
}

// fileOps draws count steps. Appends outnumber reads, so files grow across
// extents; sizes span a tuple to more than two extents at any page size.
func fileOps(r *xrand.Source, count, perPage int) []fileOp {
	ext := extentPages * perPage
	ops := make([]fileOp, count)
	for i := range ops {
		op := &ops[i]
		switch k := r.Intn(20); {
		case k < 3:
			op.kind = opAppend
		case k < 7:
			op.kind = opAppendBatch
			switch r.Intn(3) {
			case 0:
				op.n = r.Intn(10) // packet-sized, empty included
			case 1:
				op.n = r.Intn(perPage + 2)
			default:
				op.n = r.Intn(2*ext + 3)
			}
		case k < 9:
			op.kind = opAppendSelected
			for j := 0; j < 9; j++ {
				if r.Intn(2) == 0 {
					op.sel = append(op.sel, int32(j))
				}
			}
		case k < 10:
			op.kind = opFlush
		case k < 12:
			op.kind = opScan
			op.n = -1
			if r.Intn(2) == 0 {
				op.n = r.Intn(3*ext + 1)
			}
		case k < 13:
			op.kind = opCursorNew
		case k < 15:
			op.kind = opCursorNext
			op.n = -1
			if r.Intn(3) != 0 {
				op.n = r.Intn(2*ext + 1)
			}
		case k < 16:
			op.kind = opCursorReset
		case k < 17:
			op.kind = opAt
			op.n = r.Intn(4*ext+4) - 2
		case k < 19:
			op.kind = opUpdate
			op.n = 1 + r.Intn(50)
		default:
			op.kind = opRecycle
		}
	}
	return ops
}

// fileRun is everything one workload leaves behind that the differential
// tests compare: a log of what each read saw and returned, the account,
// and the disk and mirror counters.
type fileRun struct {
	log          []int64
	acct         cost.Acct
	disk, backup disk.Counters
}

// diffDisk returns a model with a page of pageBytes and a fresh disk d
// behaving as mode says, with b its mirror when mode is mirrorDown.
func diffDisk(mode sortDisk, pageBytes int) (m *cost.Model, d, b *disk.Disk) {
	p := cost.DefaultParams()
	p.PageBytes = pageBytes
	m = cost.NewModel(p)
	d, b = disk.New(0, m), disk.New(1, m)
	switch mode {
	case faultyDisk:
		d.SetFaults(fault.NewRegistry(fault.Spec{Seed: 1989, DiskReadRate: 0.3, RetryBackoffNs: 250_000}))
	case mirrorDown:
		d.SetBackup(b)
		d.SetDown(true)
	}
	return m, d, b
}

// runFileOps runs ops against a file that open makes on a fresh disk
// behaving as mode says, with a page of pageBytes.
func runFileOps(open func(string, *disk.Disk, *cost.Model) fileUnderTest,
	ops []fileOp, mode sortDisk, pageBytes int) fileRun {
	m, d, b := diffDisk(mode, pageBytes)
	f := open("diff.file", d, m)
	var run fileRun
	a := &run.acct
	log := func(vs ...int64) { run.log = append(run.log, vs...) }
	seen := func(t *tuple.Tuple) { log(int64(t.Int(tuple.Unique1)), int64(t.Int(tuple.Unique2))) }
	next := int32(0)
	mk := func() tuple.Tuple {
		next++
		return mkTuple(next)
	}
	var cur cursorUnderTest
	for i, op := range ops {
		log(-1, int64(i))
		if cur != nil && op.kind <= opAppendSelected {
			// Files are fully written before cursors read them; a cursor
			// sees appends only after a Reset.
			cur.Reset()
		}
		switch op.kind {
		case opAppend:
			f.Append(a, mk())
		case opAppendBatch:
			batch := make([]tuple.Tuple, op.n)
			for j := range batch {
				batch[j] = mk()
			}
			f.AppendBatch(a, batch)
		case opAppendSelected:
			pkt := make([]tuple.Tuple, 9)
			for j := range pkt {
				pkt[j] = mk()
			}
			f.AppendSelected(a, pkt, op.sel)
		case opFlush:
			f.Flush(a)
		case opScan:
			left := op.n
			f.Scan(a, func(t *tuple.Tuple) bool {
				seen(t)
				left--
				return left != 0
			})
		case opCursorNew:
			cur = cursorOf(f, a)
		case opCursorNext:
			if cur == nil {
				cur = cursorOf(f, a)
			}
			for j := 0; j != op.n; j++ {
				if j%2 == 0 {
					t, ok := cur.NextP()
					if !ok {
						log(-2)
						break
					}
					seen(t)
				} else {
					t, ok := cur.Next()
					if !ok {
						log(-2)
						break
					}
					seen(&t)
				}
			}
		case opCursorReset:
			if cur != nil {
				cur.Reset()
			}
		case opAt:
			if t, ok := f.At(int64(op.n)); ok {
				seen(t)
			} else {
				log(-3)
			}
		case opUpdate:
			mod := int32(op.n)
			log(f.UpdateWhere(a,
				func(t *tuple.Tuple) bool { return t.Int(tuple.Unique1)%mod == 0 },
				func(t *tuple.Tuple) { t.SetInt(tuple.Unique2, -t.Int(tuple.Unique2)-1) }))
		case opRecycle:
			f.Recycle()
			cur = nil // a cursor must not outlive its file's tuples
		}
		log(f.Len(), int64(f.Pages()))
	}
	for pos := int64(0); pos < f.Len(); pos++ {
		t, _ := f.At(pos)
		seen(t)
	}
	f.Recycle()
	run.disk, run.backup = d.Counters(), b.Counters()
	return run
}

// checkFileMatchesReference runs ops against a File and against the
// page-directory reference, each on its own disk, and requires the same
// reads, account (events and their stamps included) and counters.
func checkFileMatchesReference(t *testing.T, ops []fileOp, mode sortDisk, pageBytes int) {
	t.Helper()
	got := runFileOps(func(name string, d *disk.Disk, m *cost.Model) fileUnderTest {
		return NewFile(name, d, m)
	}, ops, mode, pageBytes)
	want := runFileOps(func(name string, d *disk.Disk, m *cost.Model) fileUnderTest {
		return newRefFile(name, d, m)
	}, ops, mode, pageBytes)
	for i := range min(len(got.log), len(want.log)) {
		if got.log[i] != want.log[i] {
			lo := max(i-8, 0)
			t.Fatalf("log entry %d: File %d, reference %d (File %v…, reference %v…)", i,
				got.log[i], want.log[i], got.log[lo:i+1], want.log[lo:i+1])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("File logged %d entries, reference %d", len(got.log), len(want.log))
	}
	if got.acct.CPU != want.acct.CPU || got.acct.Disk != want.acct.Disk || got.acct.Net != want.acct.Net {
		t.Fatalf("account: File cpu %d disk %d net %d, reference cpu %d disk %d net %d",
			got.acct.CPU, got.acct.Disk, got.acct.Net, want.acct.CPU, want.acct.Disk, want.acct.Net)
	}
	if !reflect.DeepEqual(got.acct.Events, want.acct.Events) {
		for i := range min(len(got.acct.Events), len(want.acct.Events)) {
			if got.acct.Events[i] != want.acct.Events[i] {
				t.Fatalf("event %d of %d/%d: File %+v, reference %+v", i,
					len(got.acct.Events), len(want.acct.Events), got.acct.Events[i], want.acct.Events[i])
			}
		}
		t.Fatalf("File noted %d events, reference %d", len(got.acct.Events), len(want.acct.Events))
	}
	if got.disk != want.disk || got.backup != want.backup {
		t.Fatalf("disk counters: File %+v / backup %+v, reference %+v / backup %+v",
			got.disk, got.backup, want.disk, want.backup)
	}
}

// filePageSizes are the page sizes the differential tests cover: the
// default's 39 tuples a page, 9, and the one-tuple minimum.
var filePageSizes = []int{8192, 2048, tuple.Bytes}

// TestFileMatchesReference holds File to the page-directory reference over
// random workloads of appends, flushes, scans with early stops, cursors,
// positional reads, updates and recycling, at three page sizes, on a plain,
// a faulty and a failed-over mirrored disk.
func TestFileMatchesReference(t *testing.T) {
	for _, pageBytes := range filePageSizes {
		perPage := cost.NewModel(cost.DefaultParams()).TuplesPerPage(tuple.Bytes)
		if pageBytes != 8192 {
			perPage = max(pageBytes/tuple.Bytes, 1)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			ops := fileOps(xrand.New(seed), 150, perPage)
			for _, mode := range []sortDisk{plainDisk, faultyDisk, mirrorDown} {
				t.Run(fmt.Sprintf("page=%d/seed=%d/%v", pageBytes, seed, mode), func(t *testing.T) {
					checkFileMatchesReference(t, ops, mode, pageBytes)
				})
			}
		}
	}
}

// scanFunc scans a file, calling fn on each tuple until it returns false.
type scanFunc func(f fileUnderTest, a *cost.Acct, fn func(t *tuple.Tuple) bool)

// scanStops are where the scans of a scanRun stop: after the first tuple,
// mid-page, at the end of a page, one past it, and never.
var scanStops = []int{1, 5, 2 * 9, 2*9 + 1, 0}

// runScans fills a file that open makes on a fresh disk behaving as mode
// says, with a page of pageBytes, then scans it with scan once per
// scanStops entry, through a callback that charges CPU and notes every
// seventh tuple, so a charge moved within a page shifts a stamp. It logs
// each tuple a scan sees.
func runScans(open func(string, *disk.Disk, *cost.Model) fileUnderTest, scan scanFunc,
	mode sortDisk, pageBytes int) fileRun {
	m, d, b := diffDisk(mode, pageBytes)
	f := open("scan.file", d, m)
	var run fileRun
	a := &run.acct
	tuples := make([]tuple.Tuple, 5*39+3) // five full pages at any page size here, and a partial one
	for i := range tuples {
		tuples[i] = mkTuple(int32(i))
	}
	f.AppendBatch(a, tuples)
	f.Flush(a)
	for _, stop := range scanStops {
		n := 0
		scan(f, a, func(t *tuple.Tuple) bool {
			run.log = append(run.log, int64(t.Int(tuple.Unique1)))
			a.AddCPU(m.Hash)
			if n++; n%7 == 0 {
				a.Note("seen", int64(n))
			}
			return n != stop
		})
		run.log = append(run.log, -1)
	}
	run.disk, run.backup = d.Counters(), b.Counters()
	return run
}

// TestScanPagesMatchesScan holds a page loop over ScanPages that charges a
// ReadTuple per tuple to Scan, and both to the page-directory reference's
// Scan: the same tuples in the same order, the same early stops, and the
// same account, events and their stamps included, and disk counters, at
// three page sizes on a plain, a faulty and a failed-over mirrored disk.
func TestScanPagesMatchesScan(t *testing.T) {
	newFile := func(name string, d *disk.Disk, m *cost.Model) fileUnderTest { return NewFile(name, d, m) }
	pageLoop := func(f fileUnderTest, a *cost.Acct, fn func(t *tuple.Tuple) bool) {
		ff := f.(*File)
		readNs := ff.model.ReadTuple
		ff.ScanPages(a, func(pg []tuple.Tuple) bool {
			for i := range pg {
				a.AddCPU(readNs)
				if !fn(&pg[i]) {
					return false
				}
			}
			return true
		})
	}
	scan := func(f fileUnderTest, a *cost.Acct, fn func(t *tuple.Tuple) bool) { f.Scan(a, fn) }
	for _, pageBytes := range filePageSizes {
		for _, mode := range []sortDisk{plainDisk, faultyDisk, mirrorDown} {
			t.Run(fmt.Sprintf("page=%d/%v", pageBytes, mode), func(t *testing.T) {
				want := runScans(func(name string, d *disk.Disk, m *cost.Model) fileUnderTest {
					return newRefFile(name, d, m)
				}, scan, mode, pageBytes)
				diskEvents := 0
				for _, ev := range want.acct.Events {
					if ev.Kind != "seen" {
						diskEvents++
					}
				}
				if (mode == plainDisk) != (diskEvents == 0) {
					t.Fatalf("%v disk noted %d disk events", mode, diskEvents)
				}
				for _, c := range []struct {
					name string
					run  fileRun
				}{
					{"ScanPages", runScans(newFile, pageLoop, mode, pageBytes)},
					{"Scan", runScans(newFile, scan, mode, pageBytes)},
				} {
					if !slices.Equal(c.run.log, want.log) {
						t.Fatalf("%s saw %v, reference %v", c.name, c.run.log, want.log)
					}
					if !reflect.DeepEqual(c.run.acct, want.acct) {
						t.Fatalf("%s account %+v, reference %+v", c.name, c.run.acct, want.acct)
					}
					if c.run.disk != want.disk || c.run.backup != want.backup {
						t.Fatalf("%s disk counters %+v / backup %+v, reference %+v / backup %+v", c.name,
							c.run.disk, c.run.backup, want.disk, want.backup)
					}
				}
			})
		}
	}
}

// FuzzFileMatchesReference holds File to the reference on random
// workloads of up to 400 steps, at any of the three page sizes, on a plain,
// faulty or failed-over disk.
func FuzzFileMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(150), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(300), uint8(1), uint8(1))
	f.Add(uint64(3), uint16(200), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, mode, page uint8) {
		pageBytes := filePageSizes[int(page)%len(filePageSizes)]
		perPage := max(pageBytes/tuple.Bytes, 1)
		ops := fileOps(xrand.New(seed), int(count)%401, perPage)
		checkFileMatchesReference(t, ops, sortDisk(mode%3), pageBytes)
	})
}
