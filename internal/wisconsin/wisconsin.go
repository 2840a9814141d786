// Package wisconsin generates the benchmark relations used by the paper's
// experiments: standard Wisconsin-benchmark relations [BITT83] of 208-byte
// tuples, the Bprime relation used by the joinABprime query, and the skewed
// variants of Section 4.4 whose join attribute is drawn from a normal
// distribution with mean 50,000 and standard deviation 750 over the domain
// 0..99,999.
package wisconsin

import (
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// Skew matches the paper's non-uniform distribution parameters for the
// standard 100,000-tuple relation. GenerateSkewed scales them with the
// relation cardinality so scaled-down workloads keep the same shape (mean
// at mid-domain, stddev 0.75% of the domain).
const (
	SkewMean   = 50000
	SkewStddev = 750
	DomainMax  = 99999
)

// Generate builds a standard Wisconsin relation of n tuples: unique1 and
// unique2 are independent random permutations of 0..n-1 and the derived
// attributes follow the benchmark definitions. The Normal attribute slot is
// filled with a uniform random value over the unique1 domain [0, n) (it
// becomes skewed only in GenerateSkewed).
func Generate(n int, seed uint64) []tuple.Tuple {
	r := xrand.New(seed)
	u1 := r.Perm(n)
	u2 := r.Perm(n)
	out := make([]tuple.Tuple, n)
	for i := range out {
		fill(&out[i], int32(u1[i]), int32(u2[i]), int32(r.Intn(n)))
	}
	return out
}

// GenerateSkewed is Generate with the Normal attribute drawn from the
// paper's normal distribution: for the standard 100,000-tuple relation that
// is normal(50000, 750) clamped to 0..99999; for other cardinalities the
// mean and deviation scale with the unique1 domain [0, n) so the skewed
// values always join against the uniform key.
func GenerateSkewed(n int, seed uint64) []tuple.Tuple {
	r := xrand.New(seed)
	u1 := r.Perm(n)
	u2 := r.Perm(n)
	mean := float64(n) / 2
	sd := float64(n) * float64(SkewStddev) / float64(DomainMax+1)
	out := make([]tuple.Tuple, n)
	for i := range out {
		nv := int32(r.NormalIntClamped(mean, sd, 0, n-1))
		fill(&out[i], int32(u1[i]), int32(u2[i]), nv)
	}
	return out
}

// fill sets the integer attributes; the string attributes are derived from
// them on demand (tuple.Tuple.Str), never stored.
func fill(t *tuple.Tuple, u1, u2, normal int32) {
	t.Ints[tuple.Unique1] = u1
	t.Ints[tuple.Unique2] = u2
	t.Ints[tuple.Two] = u1 % 2
	t.Ints[tuple.Four] = u1 % 4
	t.Ints[tuple.Ten] = u1 % 10
	t.Ints[tuple.Twenty] = u1 % 20
	t.Ints[tuple.OnePercent] = u1 % 100
	t.Ints[tuple.TenPercent] = u1 % 10
	t.Ints[tuple.TwentyPercent] = u1 % 5
	t.Ints[tuple.FiftyPercent] = u1 % 2
	t.Ints[tuple.Unique3] = normal // Normal slot; uniform unless skewed
	t.Ints[tuple.EvenOnePercent] = (u1 % 100) * 2
	t.Ints[tuple.OddOnePercent] = (u1%100)*2 + 1
}

// Bprime selects the tuples of rel whose unique1 value is below k, yielding
// the k-tuple Bprime relation of the joinABprime query: joining it with a
// relation whose unique1 is a permutation produces exactly k result tuples.
func Bprime(rel []tuple.Tuple, k int32) []tuple.Tuple {
	var out []tuple.Tuple
	for i := range rel {
		if rel[i].Int(tuple.Unique1) < k {
			out = append(out, rel[i])
		}
	}
	return out
}

// RandomSubset picks k distinct tuples of rel uniformly at random — the
// paper's construction for the 10,000-tuple relation of the skew
// experiments ("created by randomly selecting 10,000 tuples from the
// 100,000 tuple relation").
func RandomSubset(rel []tuple.Tuple, k int, seed uint64) []tuple.Tuple {
	if k > len(rel) {
		k = len(rel)
	}
	perm := xrand.New(seed).Perm(len(rel))
	out := make([]tuple.Tuple, k)
	for i := 0; i < k; i++ {
		out[i] = rel[perm[i]]
	}
	return out
}
