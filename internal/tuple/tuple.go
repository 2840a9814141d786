// Package tuple defines the Wisconsin-benchmark tuple layout used throughout
// the reproduction: thirteen 4-byte integer attributes followed by three
// 52-byte string attributes, 208 bytes per tuple, exactly as in Bitton,
// DeWitt & Turbyfill (VLDB 1983) and as used by Schneider & DeWitt (1989).
//
// The 208 bytes are the simulated size: every cost charge uses Bytes and
// JoinedBytes. The host representation is compact — a Tuple holds only the
// 52 bytes of integers, and the string attributes, which no join, predicate
// or checksum reads, are derived from unique1/unique2 on demand (Str) and
// materialized only by the wire encoding (Marshal).
package tuple

import (
	"encoding/binary"
	"fmt"
)

// Layout constants.
const (
	NumInts = 13 // number of 4-byte integer attributes
	NumStrs = 3  // number of string attributes
	StrLen  = 52 // bytes per string attribute

	// Bytes is the storage size of one tuple (208 bytes).
	Bytes = NumInts*4 + NumStrs*StrLen

	// JoinedBytes is the size of one composite join-result tuple (416
	// bytes; the 10,000-tuple joinABprime result is "over 4 megabytes").
	JoinedBytes = 2 * Bytes
)

// Integer attribute indices (Wisconsin benchmark names). Unique3 doubles as
// the non-uniform ("normal") join attribute in the skew experiments of the
// paper's Section 4.4: relations built for those experiments store a
// normal(50000, 750) variate in this slot.
const (
	Unique1 = iota
	Unique2
	Two
	Four
	Ten
	Twenty
	OnePercent
	TenPercent
	TwentyPercent
	FiftyPercent
	Unique3
	EvenOnePercent
	OddOnePercent
)

// Normal is an alias for the attribute slot holding the non-uniformly
// distributed join attribute in skew experiments.
const Normal = Unique3

// IntAttrNames lists the integer attribute names, indexed by the constants
// above.
var IntAttrNames = [NumInts]string{
	"unique1", "unique2", "two", "four", "ten", "twenty",
	"onePercent", "tenPercent", "twentyPercent", "fiftyPercent",
	"unique3", "evenOnePercent", "oddOnePercent",
}

// StrAttrNames lists the string attribute names.
var StrAttrNames = [NumStrs]string{"stringu1", "stringu2", "string4"}

// AttrIndex returns the integer-attribute index for a Wisconsin attribute
// name, or an error if the name is unknown or names a string attribute.
func AttrIndex(name string) (int, error) {
	for i, n := range IntAttrNames {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("tuple: unknown integer attribute %q", name)
}

// Tuple is one Wisconsin-benchmark record. Only the integer attributes are
// stored; see Str for the string attributes.
type Tuple struct {
	Ints [NumInts]int32
}

// Int returns integer attribute i.
func (t *Tuple) Int(i int) int32 { return t.Ints[i] }

// SetInt sets integer attribute i.
func (t *Tuple) SetInt(i int, v int32) { t.Ints[i] = v }

// Str returns string attribute i (0 stringu1, 1 stringu2, 2 string4),
// derived from the integer attributes: stringu1 from unique1, stringu2 from
// unique2 and string4 from unique1 mod 100, each in the spirit of the
// benchmark's cyclic string attributes.
func (t *Tuple) Str(i int) [StrLen]byte {
	switch i {
	case 0:
		return str(t.Ints[Unique1])
	case 1:
		return str(t.Ints[Unique2])
	case 2:
		return str(t.Ints[Unique1] % 100)
	}
	panic(fmt.Sprintf("tuple: string attribute %d out of range", i))
}

// str renders a 52-byte string attribute deterministically from v: four
// base-26 letters of v followed by "xxx", repeated to fill the field.
func str(v int32) [StrLen]byte {
	var s [7]byte
	s[0] = byte('A' + v%26)
	s[1] = byte('A' + (v/26)%26)
	s[2] = byte('A' + (v/676)%26)
	s[3] = byte('A' + (v/17576)%26)
	s[4], s[5], s[6] = 'x', 'x', 'x'
	var dst [StrLen]byte
	for i := range dst {
		dst[i] = s[i%len(s)]
	}
	return dst
}

// Marshal appends the 208-byte wire encoding of t to dst and returns the
// extended slice: the integers little-endian, then the three derived string
// attributes.
func (t *Tuple) Marshal(dst []byte) []byte {
	var buf [4]byte
	for _, v := range t.Ints {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		dst = append(dst, buf[:]...)
	}
	for i := 0; i < NumStrs; i++ {
		s := t.Str(i)
		dst = append(dst, s[:]...)
	}
	return dst
}

// Unmarshal decodes a tuple from the first Bytes bytes of src. The string
// attributes are not stored, so it rejects an encoding whose string bytes
// differ from the ones the decoded integers derive — decoding such a record
// would silently drop data. On error t is left unchanged.
func (t *Tuple) Unmarshal(src []byte) error {
	if len(src) < Bytes {
		return fmt.Errorf("tuple: short buffer: %d < %d", len(src), Bytes)
	}
	var d Tuple
	for i := range d.Ints {
		d.Ints[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
	off := NumInts * 4
	for i := 0; i < NumStrs; i++ {
		if s := d.Str(i); string(src[off:off+StrLen]) != string(s[:]) {
			return fmt.Errorf("tuple: %s bytes do not match the value derived from the integer attributes", StrAttrNames[i])
		}
		off += StrLen
	}
	*t = d
	return nil
}

// String renders a compact description (unique1/unique2 only).
func (t *Tuple) String() string {
	return fmt.Sprintf("Tuple{unique1:%d unique2:%d}", t.Ints[Unique1], t.Ints[Unique2])
}

// Joined is a composite join-result tuple: the concatenation of an inner
// and an outer tuple (416 bytes on the wire).
type Joined struct {
	Inner Tuple
	Outer Tuple
}

// PairChecksum folds a joined pair's integer attributes into a 64-bit
// value, computed from the two sides in place so emitters can checksum a
// match without materializing the composite tuple. The per-tuple hashes are
// combined with a mixing chain, so two different result tuples almost never
// collide, while summing checksums over a result set is order-independent —
// which is what lets concurrent and serial executions of the same query be
// compared tuple-for-tuple without collecting either result set (see
// Report.ResultSum in internal/core).
func PairChecksum(inner, outer *Tuple) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	fold := func(t *Tuple) {
		for _, v := range t.Ints {
			h ^= uint64(uint32(v))
			h *= 0xBF58476D1CE4E5B9
			h ^= h >> 29
		}
	}
	fold(inner)
	fold(outer)
	h *= 0x94D049BB133111EB
	return h ^ (h >> 32)
}
