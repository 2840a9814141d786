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
