// Package freelist holds the simulator's one recycling idiom: a free list
// of values handed back for reuse. Unlike a sync.Pool, a list keeps what
// it holds across garbage collections and under the race detector, so what
// a warmed caller allocates does not depend on when the collector last ran.
// A list takes back only values it or its caller handed out, so it never
// holds more than were out at once.
package freelist

import "sync"

// List is a concurrency-safe stack of idle values. The zero value is an
// empty list ready to use.
type List[T any] struct {
	mu   sync.Mutex
	idle []T
}

// Get takes the value put back last, or reports false when none is idle.
func (l *List[T]) Get() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var v T
	n := len(l.idle)
	if n == 0 {
		return v, false
	}
	v, l.idle[n-1] = l.idle[n-1], v
	l.idle = l.idle[:n-1]
	return v, true
}

// Put hands v back for a later Get. The caller must not use v afterwards.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.idle = append(l.idle, v)
	l.mu.Unlock()
}
