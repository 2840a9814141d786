package gamma

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// probeSets is how many distinct outer fragments BenchmarkHashTable's
// op=probe rotates through. A join's probes meet keys they have not met
// before, while probing one fragment over and over lets the branch
// predictor learn where every chain walk ends.
const probeSets = 64

// BenchmarkHashTable builds one site's share of a paper-scale inner
// relation, 1,250 tuples (10,000 over 8 sites), into a table that holds it
// without overflow, and probes it with one site's outer fragment, 12,500
// tuples of which 10% match, as joinABprime does. op=insert reports ns per
// inserted tuple and op=probe ns per probing tuple, each with allocs/op.
// op=probe rotates through probeSets fragments, each with its own keys and
// its own matching positions, all built before the timer starts;
// op=probe-same-keys probes the first of them on every iteration.
func BenchmarkHashTable(b *testing.B) {
	const inner, outer = 1_250, 12_500
	m := cost.Default()
	attr := tuple.Unique1
	build := make([]tuple.Tuple, inner)
	buildH := make([]uint64, inner)
	for i := range build {
		build[i].SetInt(attr, int32(i))
		buildH[i] = split.Hash(int32(i), 0)
	}
	r := xrand.New(1989)
	probes := make([][]tuple.Tuple, probeSets)
	probeHs := make([][]uint64, probeSets)
	for s := range probes {
		probe := make([]tuple.Tuple, outer)
		probeH := make([]uint64, outer)
		for i, p := range r.Perm(outer) {
			key := int32(inner + r.Intn(1<<30)) // no match
			if p%10 == 0 {
				key = int32(r.Intn(inner)) // a tenth of the tuples match one inner tuple
			}
			probe[i].SetInt(attr, key)
			probeH[i] = split.Hash(key, 0)
		}
		probes[s], probeHs[s] = probe, probeH
	}
	newTable := func(a *cost.Acct) *HashTable {
		ht := NewHashTable(m, inner*tuple.Bytes, attr)
		for i := range build {
			if evicted := ht.Insert(a, &build[i], buildH[i]); len(evicted) != 0 {
				b.Fatalf("a table sized for %d tuples evicted %d", inner, len(evicted))
			}
		}
		return ht
	}

	b.Run("op=insert", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var a cost.Acct
			newTable(&a).Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*inner), "ns/tuple")
	})
	probe := func(sets int) func(b *testing.B) {
		return func(b *testing.B) {
			var load cost.Acct
			ht := newTable(&load)
			defer ht.Release()
			matches := 0
			onMatch := func(outer, match *tuple.Tuple) { matches++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var a cost.Acct
				ht.ProbeBatch(&a, probes[i%sets], probeHs[i%sets], attr, onMatch)
			}
			b.StopTimer()
			if matches != b.N*outer/10 {
				b.Fatalf("%d matches over %d probes of %d tuples, want %d", matches, b.N, outer, b.N*outer/10)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*outer), "ns/tuple")
		}
	}
	b.Run("op=probe", probe(probeSets))
	b.Run("op=probe-same-keys", probe(1))
}
