package tuple_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// TestWireEncodingPinned pins the 208-byte wire encoding across changes to
// the host representation: the digest of Marshal over a uniform and a
// skewed generated relation must never move.
func TestWireEncodingPinned(t *testing.T) {
	const want = "e3e88ac987337bc9b080a0eb34de2a0db7f5c2c1f29ac28fb4a2cf5520498c77"
	h := sha256.New()
	var buf []byte
	for _, rel := range [][]tuple.Tuple{wisconsin.Generate(1000, 1989), wisconsin.GenerateSkewed(1000, 7)} {
		for i := range rel {
			buf = rel[i].Marshal(buf[:0])
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("wire digest = %s, want %s", got, want)
	}
}
