package wiss

import (
	"hash/fnv"
	"strings"
	"testing"
)

// scrubFileID removes a test-registered id so the process-global owner map
// stays clean for other tests.
func scrubFileID(id int64) {
	idOwnersMu.Lock()
	delete(idOwners, id)
	idOwnersMu.Unlock()
}

func TestRegisterFileIDCollisionPanics(t *testing.T) {
	const id = int64(0x7e57_0000_c0111de) // synthetic; fnv collisions are impractical to construct
	defer scrubFileID(id)
	registerFileID(id, "tmp.r.1")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-name id collision did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "file id collision") ||
			!strings.Contains(msg, "tmp.r.1") || !strings.Contains(msg, "tmp.s.9") {
			t.Fatalf("panic message %v does not name the colliding files", r)
		}
	}()
	registerFileID(id, "tmp.s.9")
}

func TestRegisterFileIDSameNameIsIdempotent(t *testing.T) {
	const id = int64(0x7e57_0000_1de4)
	defer scrubFileID(id)
	registerFileID(id, "A.frag0")
	registerFileID(id, "A.frag0") // repeated runs re-register the same pair
}

// TestFileIDIsFNV64a pins fileID, over a string or a byte buffer, to 64-bit
// FNV-1a: file ids key fault schedules and arm-switch accounting, so they
// must not move.
func TestFileIDIsFNV64a(t *testing.T) {
	for _, name := range []string{"", "A.frag0", "q3.sm.tmpR.5.17.run12", "src.m2.14"} {
		h := fnv.New64a()
		h.Write([]byte(name))
		want := int64(h.Sum64())
		if got := fileID(name); got != want {
			t.Errorf("fileID(%q) = %#x, want %#x", name, got, want)
		}
		if got := fileID([]byte(name)); got != want {
			t.Errorf("fileID([]byte(%q)) = %#x, want %#x", name, got, want)
		}
	}
}

// TestRunFileIDRegisteredWithoutAllocating requires a sort run's name, held
// in a byte buffer, to be hashed and checked against its registration
// without allocating once the name is registered.
func TestRunFileIDRegisteredWithoutAllocating(t *testing.T) {
	name := []byte("alloc.src.run7")
	id := fileID(name)
	registerFileID(id, name)
	defer scrubFileID(id)
	if id != fileID("alloc.src.run7") {
		t.Fatalf("fileID([]byte) = %#x, want fileID's %#x", id, fileID("alloc.src.run7"))
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [64]byte // as the sort builds a run name: on the stack
		b := append(buf[:0], name...)
		registerFileID(fileID(b), b)
	}); n != 0 {
		t.Fatalf("registering an already registered run name allocates %.0f times", n)
	}
}

// TestInternNameReturnsRegisteredName requires a name built in a byte
// buffer to come back as the registered string, and a name registered
// before, from a buffer or a string, to be interned without allocating.
func TestInternNameReturnsRegisteredName(t *testing.T) {
	name := []byte("q3.grace.r.b2#7")
	s := InternName(name)
	defer scrubFileID(fileID(s))
	if s != string(name) {
		t.Fatalf("InternName(%q) = %q", name, s)
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [64]byte // as newTempFile builds a temp file's name
		if got := InternName(append(buf[:0], name...)); got != s {
			t.Fatalf("InternName(%q) = %q, want %q", name, got, s)
		}
	}); n != 0 {
		t.Fatalf("interning a registered name allocates %.0f times", n)
	}
	f, _, _ := testFile(t, "intern.frag0")
	defer scrubFileID(f.ID())
	if n := testing.AllocsPerRun(100, func() { InternName([]byte("intern.frag0")) }); n != 0 {
		t.Fatalf("interning a name NewFile registered allocates %.0f times", n)
	}
}
