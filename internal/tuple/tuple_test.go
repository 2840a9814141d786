package tuple

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSizes(t *testing.T) {
	if Bytes != 208 {
		t.Fatalf("Bytes = %d, want 208 (paper: ~20 MB for 100k tuples)", Bytes)
	}
	if JoinedBytes != 416 {
		t.Fatalf("JoinedBytes = %d, want 416", JoinedBytes)
	}
}

func TestAttrIndex(t *testing.T) {
	for i, name := range IntAttrNames {
		got, err := AttrIndex(name)
		if err != nil {
			t.Fatalf("AttrIndex(%q): %v", name, err)
		}
		if got != i {
			t.Fatalf("AttrIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if _, err := AttrIndex("nope"); err == nil {
		t.Fatal("AttrIndex of unknown name should error")
	}
	if _, err := AttrIndex("stringu1"); err == nil {
		t.Fatal("AttrIndex of string attribute should error")
	}
}

func TestNormalAlias(t *testing.T) {
	if Normal != Unique3 {
		t.Fatalf("Normal alias = %d, want %d", Normal, Unique3)
	}
}

func TestIntAccessors(t *testing.T) {
	var tp Tuple
	tp.SetInt(Unique1, 42)
	tp.SetInt(FiftyPercent, -1)
	if tp.Int(Unique1) != 42 || tp.Int(FiftyPercent) != -1 {
		t.Fatalf("accessor mismatch: %v", tp.Ints)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(ints [NumInts]int32) bool {
		in := Tuple{Ints: ints}
		buf := in.Marshal(nil)
		if len(buf) != Bytes {
			return false
		}
		var out Tuple
		if err := out.Unmarshal(buf); err != nil {
			return false
		}
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsForeignStrings(t *testing.T) {
	var tp Tuple
	tp.SetInt(Unique1, 7)
	tp.SetInt(Unique2, 9)
	for i := 0; i < NumStrs; i++ {
		buf := tp.Marshal(nil)
		buf[NumInts*4+i*StrLen+StrLen/2] ^= 0x20 // flip one string byte
		var out Tuple
		if err := out.Unmarshal(buf); err == nil {
			t.Fatalf("Unmarshal accepted a %s that its integers do not derive", StrAttrNames[i])
		}
		if out != (Tuple{}) {
			t.Fatalf("failed Unmarshal modified its receiver: %v", out.Ints)
		}
	}
}

func TestStrDerivation(t *testing.T) {
	var tp Tuple
	tp.SetInt(Unique1, 1+2*26+3*676+4*17576) // base-26 digits 1,2,3,4; mod 100 = 85
	tp.SetInt(Unique2, 0)
	cycle := func(s string) string { return strings.Repeat(s, StrLen/len(s)+1)[:StrLen] }
	for i, want := range []string{cycle("BCDExxx"), cycle("AAAAxxx"), cycle("HDAAxxx")} {
		if got := tp.Str(i); string(got[:]) != want {
			t.Errorf("Str(%d) = %q, want %q", i, got[:], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Str(NumStrs) did not panic")
		}
	}()
	tp.Str(NumStrs)
}

func TestMarshalAppends(t *testing.T) {
	var tp Tuple
	tp.SetInt(0, 7)
	prefix := []byte{0xAA, 0xBB}
	buf := tp.Marshal(prefix)
	if len(buf) != 2+Bytes {
		t.Fatalf("len = %d", len(buf))
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatal("Marshal clobbered prefix")
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	var tp Tuple
	if err := tp.Unmarshal(make([]byte, Bytes-1)); err == nil {
		t.Fatal("Unmarshal of short buffer should error")
	}
}

func TestString(t *testing.T) {
	var tp Tuple
	tp.SetInt(Unique1, 3)
	tp.SetInt(Unique2, 9)
	if got := tp.String(); got != "Tuple{unique1:3 unique2:9}" {
		t.Fatalf("String() = %q", got)
	}
}
