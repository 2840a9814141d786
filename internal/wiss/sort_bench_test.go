package wiss

import (
	"fmt"
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// BenchmarkSort sorts one paper-scale outer fragment, 12,500 tuples (100,000
// over 8 sites), at memory 1, 1/4 and 1/8 of a site's inner share (1,250
// tuples): one, three and seven merge passes. It reports ns/tuple and
// allocs/op. It uses only Sort's signature, so it runs unchanged in a
// checkout of any version of the sort.
func BenchmarkSort(b *testing.B) {
	const fragment, innerShare = 12_500, 1_250
	m := cost.Default()
	d := disk.New(0, m)
	src := NewFile("bench.sort.src", d, m)
	var load cost.Acct
	r := xrand.New(1989)
	for range fragment {
		var tp tuple.Tuple
		tp.SetInt(tuple.Unique1, int32(r.Intn(100_000)))
		src.Append(&load, tp)
	}
	src.Flush(&load)
	for _, div := range []int64{1, 4, 8} {
		mem := innerShare * tuple.Bytes / div
		b.Run(fmt.Sprintf("mem=1/%d", div), func(b *testing.B) {
			dst := NewFile("bench.sort.dst", d, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var a cost.Acct
				if _, err := Sort(&a, src, dst, tuple.Unique1, mem); err != nil {
					b.Fatal(err)
				}
				dst.Recycle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fragment), "ns/tuple")
		})
	}
}
