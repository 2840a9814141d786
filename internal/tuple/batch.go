package tuple

// Batch is a columnar run of tuples paired with their routing hashes — the
// unit the batched operator engine moves through split tables, exchanges,
// and hash-table probes. Keeping the two parallel slices together (rather
// than a slice of (tuple, hash) pairs) lets the inner loops touch only the
// 8-byte hash column until a tuple actually qualifies.
//
// A Batch is single-owner: exactly one goroutine appends to it, and once it
// is handed off (delivered through an exchange) only the receiver reads it.
type Batch struct {
	Tuples []Tuple
	Hashes []uint64
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// Append copies one tuple and its hash into the batch. The tuple is copied
// immediately, so the caller may pass a pointer into a buffer it is about to
// recycle.
func (b *Batch) Append(t *Tuple, h uint64) {
	b.Tuples = append(b.Tuples, *t)
	b.Hashes = append(b.Hashes, h)
}
