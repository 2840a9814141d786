// Package determ seeds violations of the determinism analyzer. Each
// offending line carries a // want comment; clean idioms have none.
package determ

import (
	"math/rand"
	"sort"
	"time"
)

var globalTotal int64

// wallClock reads the wall clock three ways.
func wallClock() time.Duration {
	start := time.Now()            // want `time.Now reads the wall clock`
	d := time.Since(start)         // want `time.Since reads the wall clock`
	_ = time.Until(start)          // want `time.Until reads the wall clock`
	_ = time.Duration(42) * d / d  // time.Duration itself is fine
	return d
}

// globalRand uses the unseeded global source.
func globalRand(n int) int {
	return rand.Intn(n) // want `math/rand.Intn is not reproducible`
}

// escapingRanges shows the map-iteration shapes the analyzer flags.
func escapingRanges(m map[int]int64, out chan<- int64, sink []int64) []int64 {
	for _, v := range m {
		out <- v // want `channel send happens in map order`
	}
	for _, v := range m {
		globalTotal = v // want `map iteration order over m escapes`
	}
	for i, v := range m {
		sink[0] = v // want `map iteration order over m escapes`
		_ = i
	}
	var collected []int64
	for _, v := range m {
		collected = append(collected, v) // want `append order follows map order`
	}
	for range m {
		go wallClock() // want `goroutines are launched in map order`
	}
	var avg float64
	for _, v := range m {
		avg += float64(v) // want `map iteration order over m escapes`
	}
	_ = avg
	return collected
}

// capturedWrite shows a closure writing a variable captured from the
// enclosing function inside a map range.
func capturedWrite(m map[string]int) func() int {
	last := 0
	return func() int {
		for _, v := range m {
			last = v // want `map iteration order over m escapes`
		}
		return last
	}
}

// closureAppend sums per-key accounts and appends them through a local
// closure: the order escapes through the call, not through a write in the
// range body.
func closureAppend(sites map[int]*[3]int64) []float64 {
	var out []float64
	add := func(ns int64) {
		if ns > 0 {
			out = append(out, float64(ns))
		}
	}
	for _, s := range sites {
		add(s[0]) // want `map iteration order over sites escapes this function \(the call to add appends to out\)`
		add(s[1]) // want `the call to add appends to out`
	}
	last := 0.0
	note := func(v float64) { last = v }
	for _, s := range sites {
		note(float64(s[2])) // want `the call to note writes last`
	}
	return append(out, last)
}

// cleanRanges shows the order-independent idioms that must NOT be flagged.
func cleanRanges(m map[int]int64) ([]int, int64) {
	// Collect-then-sort: iteration order never escapes.
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	// Commutative integer accumulation.
	var sum int64
	for _, v := range m {
		sum += v
	}

	// Keyed writes touch one element per key.
	doubled := make(map[int]int64, len(m))
	for k, v := range m {
		doubled[k] = 2 * v
	}

	// Loop-local state dies with the iteration.
	for _, v := range m {
		scratch := v * 2
		_ = scratch
	}

	// A closure that writes only its own locals leaks no order, nor does
	// one that counts into an integer.
	double := func(v int64) int64 {
		d := v
		d *= 2
		return d
	}
	count := 0
	tally := func() { count++ }
	for _, v := range m {
		_ = double(v)
		tally()
	}
	sum += int64(count)

	// Collect-then-sort through a closure.
	var viaClosure []int
	collect := func(k int) { viaClosure = append(viaClosure, k) }
	for k := range m {
		collect(k)
	}
	sort.Ints(viaClosure)
	keys = append(keys, viaClosure...)

	// A justified site: max over values is order-independent.
	var maxV int64
	for _, v := range m { //gammavet:ordered max fold is order-independent
		if v > maxV {
			maxV = v
		}
	}
	sum += maxV
	return keys, sum
}
