package slicepool

import (
	"runtime/debug"
	"sync"
	"testing"
)

func TestGetEmptyAndRecycled(t *testing.T) {
	var p Pool[int]
	if s := p.Get(); s != nil {
		t.Fatalf("empty pool returned %v", s)
	}
	// Disable GC so the pool cannot shed the array between Put and Get. A
	// sync.Pool may still drop a Put (the race detector does so on
	// purpose), so retry until one round trip lands.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	recycled := false
	for try := 0; try < 100 && !recycled; try++ {
		p.Put(append(make([]int, 0, 8), 1, 2, 3))
		if s := p.Get(); s != nil {
			if len(s) != 0 || cap(s) != 8 {
				t.Fatalf("recycled slice len %d cap %d, want 0 and 8", len(s), cap(s))
			}
			recycled = true
		}
	}
	if !recycled {
		t.Fatal("pool never returned a recycled slice")
	}
	p.Put(nil) // zero-capacity slices are dropped
	if s := p.Get(); s != nil {
		t.Fatalf("nil Put was pooled: cap %d", cap(s))
	}
}

func TestPutDoesNotAllocate(t *testing.T) {
	var p Pool[int]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	buf := make([]int, 0, 16)
	p.Put(buf)
	allocs := testing.AllocsPerRun(100, func() {
		s := p.Get()
		p.Put(s)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put allocated %.1f times per round trip", allocs)
	}
}

func TestConcurrent(t *testing.T) {
	var p Pool[byte]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := p.Get()
				if len(s) != 0 {
					t.Error("dirty slice from pool")
					return
				}
				p.Put(append(s, 1))
			}
		}()
	}
	wg.Wait()
}
