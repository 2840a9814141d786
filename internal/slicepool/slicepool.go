// Package slicepool recycles slice backing arrays without boxing slice
// headers. Putting a slice into a sync.Pool directly converts its three-word
// header to an interface, which allocates on every Put (staticcheck SA6002);
// a Pool instead stores the header in a *[]T husk and recycles the husks
// too, so steady-state Get/Put traffic allocates nothing. Both halves are
// sync.Pools, so pooled arrays stay releasable by the garbage collector.
package slicepool

import "sync"

// Pool is a concurrency-safe free list of []T backing arrays. The zero value
// is ready to use.
type Pool[T any] struct {
	full  sync.Pool // *[]T holding a recycled array
	husks sync.Pool // empty *[]T, reused by Put
}

// Get returns an empty slice whose capacity is whatever a previous Put
// handed back, or a nil slice when the pool is empty.
func (p *Pool[T]) Get() []T {
	h, _ := p.full.Get().(*[]T)
	if h == nil {
		return nil
	}
	s := (*h)[:0]
	*h = nil
	p.husks.Put(h)
	return s
}

// Put recycles s's backing array. The caller must not touch s afterwards.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	h, _ := p.husks.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.full.Put(h)
}
