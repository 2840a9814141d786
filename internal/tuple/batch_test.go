package tuple

import "testing"

func TestBatchAppendReset(t *testing.T) {
	var b Batch
	for i := 0; i < 5; i++ {
		tt := Tuple{}
		tt.SetInt(Unique1, int32(i))
		b.Append(&tt, uint64(i*7))
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	for i := 0; i < 5; i++ {
		if got := b.Tuples[i].Int(Unique1); got != int32(i) {
			t.Errorf("tuple %d: unique1 = %d", i, got)
		}
		if b.Hashes[i] != uint64(i*7) {
			t.Errorf("hash %d = %d, want %d", i, b.Hashes[i], i*7)
		}
	}
}

func TestBatchAppendCopies(t *testing.T) {
	var b Batch
	src := Tuple{}
	src.SetInt(Unique1, 42)
	b.Append(&src, 1)
	src.SetInt(Unique1, 99) // mutating the source must not affect the batch
	if got := b.Tuples[0].Int(Unique1); got != 42 {
		t.Fatalf("batch saw mutation of source tuple: %d", got)
	}
}
