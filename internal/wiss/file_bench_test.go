package wiss

import (
	"testing"

	"gammajoin/internal/cost"
	"gammajoin/internal/disk"
	"gammajoin/internal/tuple"
	"gammajoin/internal/xrand"
)

// BenchmarkFile writes one paper-scale outer fragment, 12,500 tuples
// (100,000 over 8 sites), into a temp file the way an exchange consumer
// does, AppendBatch by 9-tuple packets into a fresh file, then reads it
// back with Scan and with a Cursor. It reports ns/page and allocs/op. It
// uses only the File API that predates extents, so it runs unchanged in a
// checkout of any version of the file.
func BenchmarkFile(b *testing.B) {
	const fragment, packet = 12_500, 9
	m := cost.Default()
	d := disk.New(0, m)
	tuples := make([]tuple.Tuple, fragment)
	r := xrand.New(1989)
	for i := range tuples {
		tuples[i].SetInt(tuple.Unique1, int32(r.Intn(100_000)))
		tuples[i].SetInt(tuple.Unique2, int32(i))
	}
	write := func(f *File, a *cost.Acct) {
		for rest := tuples; len(rest) > 0; rest = rest[min(packet, len(rest)):] {
			f.AppendBatch(a, rest[:min(packet, len(rest))])
		}
		f.Flush(a)
	}
	var load cost.Acct
	src := NewFile("bench.file.src", d, m)
	write(src, &load)
	pages := src.Pages()
	perPage := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	}

	b.Run("op=append", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var a cost.Acct
			f := NewFile("bench.file.append", d, m)
			write(f, &a)
			f.Recycle()
		}
		perPage(b)
	})
	b.Run("op=scan", func(b *testing.B) {
		var sum int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var a cost.Acct
			src.Scan(&a, func(t *tuple.Tuple) bool {
				sum += t.Int(tuple.Unique1)
				return true
			})
		}
		perPage(b)
	})
	b.Run("op=cursor", func(b *testing.B) {
		var sum int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var a cost.Acct
			c := src.NewCursor(&a)
			for t, ok := c.NextP(); ok; t, ok = c.NextP() {
				sum += t.Int(tuple.Unique1)
			}
		}
		perPage(b)
	})
}
