package freelist

import (
	"sync"
	"testing"
)

func TestGetEmpty(t *testing.T) {
	var l List[*int]
	if v, ok := l.Get(); ok || v != nil {
		t.Fatalf("empty list returned %v, %v", v, ok)
	}
}

func TestLIFO(t *testing.T) {
	var l List[int]
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	for want := 3; want >= 1; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if v, ok := l.Get(); ok {
		t.Fatalf("drained list returned %d", v)
	}
}

func TestWarmRoundTripDoesNotAllocate(t *testing.T) {
	var l List[[]byte]
	l.Put(make([]byte, 0, 16))
	allocs := testing.AllocsPerRun(100, func() {
		s, _ := l.Get()
		l.Put(s)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put allocated %.1f times per round trip", allocs)
	}
}

// TestConcurrent has four goroutines take and return values at once; no
// value may be held by two of them at a time, and every value must be on
// the list at the end.
func TestConcurrent(t *testing.T) {
	const values = 8
	var l List[int]
	for v := 0; v < values; v++ {
		l.Put(v)
	}
	var held [values]int32 // per value, how many goroutines hold it
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.Get()
				if !ok {
					continue
				}
				mu.Lock()
				held[v]++
				twice := held[v] > 1
				mu.Unlock()
				if twice {
					t.Errorf("value %d handed out twice", v)
				}
				mu.Lock()
				held[v]--
				mu.Unlock()
				l.Put(v)
			}
		}()
	}
	wg.Wait()
	seen := make(map[int]bool)
	for {
		v, ok := l.Get()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d on the list twice", v)
		}
		seen[v] = true
	}
	if len(seen) != values {
		t.Fatalf("%d values on the list after the run, want %d", len(seen), values)
	}
}
