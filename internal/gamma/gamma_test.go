package gamma

import (
	"sync"
	"testing"
	"time"

	"gammajoin/internal/cost"
	"gammajoin/internal/netsim"
	"gammajoin/internal/split"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

func TestClusterLocal(t *testing.T) {
	c := NewLocal(8, nil)
	if len(c.Sites) != 8 {
		t.Fatalf("sites = %d", len(c.Sites))
	}
	if got := len(c.DiskSites()); got != 8 {
		t.Fatalf("disk sites = %d", got)
	}
	if got := len(c.DisklessSites()); got != 0 {
		t.Fatalf("diskless sites = %d", got)
	}
	// Local config: joins run on the disk sites.
	js := c.JoinSites()
	if len(js) != 8 || js[0] != 0 {
		t.Fatalf("join sites = %v", js)
	}
	for _, s := range c.DiskSites() {
		if _, err := c.Disk(s); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterRemote(t *testing.T) {
	c := NewRemote(8, 8, nil)
	if len(c.Sites) != 16 {
		t.Fatalf("sites = %d", len(c.Sites))
	}
	js := c.JoinSites()
	if len(js) != 8 || js[0] != 8 {
		t.Fatalf("remote join sites = %v", js)
	}
	if _, err := c.Disk(12); err == nil {
		t.Fatal("diskless site should have no disk")
	}
	if _, err := c.Disk(99); err == nil {
		t.Fatal("out-of-range site should error")
	}
}

func TestOverflowDiskSite(t *testing.T) {
	c := NewRemote(4, 4, nil)
	// Disk site keeps its own disk.
	if got := c.OverflowDiskSite(2); got != 2 {
		t.Fatalf("OverflowDiskSite(2) = %d", got)
	}
	// Diskless sites round-robin across disks.
	seen := map[int]bool{}
	for _, js := range c.DisklessSites() {
		d := c.OverflowDiskSite(js)
		if _, err := c.Disk(d); err != nil {
			t.Fatalf("overflow home %d has no disk", d)
		}
		seen[d] = true
	}
	if len(seen) != 4 {
		t.Fatalf("overflow files assigned to %d distinct disks, want 4", len(seen))
	}
}

func TestPhaseAccounting(t *testing.T) {
	c := NewLocal(2, nil)
	q := c.NewQuery()
	p := q.NewPhase("test")
	a0 := p.Acct(0)
	a0b := p.Acct(0)
	a1 := p.Acct(1)
	a0.AddCPU(100)
	a0b.AddCPU(50)
	a0b.AddDisk(300) // site 0: cpu 150, disk 300 -> elapsed 300
	a1.AddCPU(200)   // site 1: elapsed 200
	elapsed := p.End(EndOpts{})
	if len(q.Phases) != 1 {
		t.Fatal("phase not recorded")
	}
	st := q.Phases[0]
	if st.Work != 300 {
		t.Fatalf("Work = %v, want 300ns (slowest site)", st.Work)
	}
	wantSched := time.Duration(c.Model.PhaseStartup + 2*3*c.Model.ControlMsg)
	if st.Sched != wantSched {
		t.Fatalf("Sched = %v, want %v", st.Sched, wantSched)
	}
	if elapsed != st.Elapsed() || q.Response() != elapsed {
		t.Fatal("elapsed bookkeeping inconsistent")
	}
	if got := st.PerSite[0]; got.CPU != 150 || got.Disk != 300 {
		t.Fatalf("site 0 merged acct = %+v", got)
	}
}

func TestPhaseSplitTableDelivery(t *testing.T) {
	c := NewLocal(8, nil)
	q := c.NewQuery()
	small := q.NewPhase("small")
	small.Acct(0)
	e1 := small.End(EndOpts{SplitEntries: 48, Producers: 8})
	big := q.NewPhase("big")
	big.Acct(0)
	e2 := big.End(EndOpts{SplitEntries: 56, Producers: 8})
	if e2 <= e1 {
		t.Fatalf("a >2KB split table (%v) must cost more than a 1-packet one (%v)", e2, e1)
	}
}

func TestPhaseConcurrentWorkers(t *testing.T) {
	c := NewLocal(4, nil)
	q := c.NewQuery()
	p := q.NewPhase("conc")
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				a := p.Acct(site)
				for i := 0; i < 1000; i++ {
					a.AddCPU(1)
				}
			}(s)
		}
	}
	wg.Wait()
	p.End(EndOpts{})
	st := q.Phases[0]
	for s := 0; s < 4; s++ {
		if st.PerSite[s].CPU != 3000 {
			t.Fatalf("site %d CPU = %d, want 3000", s, st.PerSite[s].CPU)
		}
	}
}

func TestExchange(t *testing.T) {
	c := NewLocal(3, nil)
	ex := c.NewExchange()
	var got int
	done := make(chan struct{})
	go func() {
		for _, b := range ex.Take(1) {
			got += b.Len()
		}
		close(done)
	}()
	b1 := &netsim.Batch{Batch: tuple.Batch{Tuples: make([]tuple.Tuple, 5)}}
	b2 := &netsim.Batch{Batch: tuple.Batch{Tuples: make([]tuple.Tuple, 4)}}
	ex.Deliver(1, []*netsim.Batch{b1})
	ex.Deliver(1, []*netsim.Batch{b2})
	ex.Close()
	<-done
	if got != 9 {
		t.Fatalf("received %d tuples", got)
	}
	c.PutExchange(ex)
	// A recycled exchange starts empty and usable again.
	ex2 := c.NewExchange()
	ex2.Close()
	if rest := ex2.Take(1); len(rest) != 0 {
		t.Fatalf("recycled exchange held %d stale batches", len(rest))
	}
}

func mk(v int32) tuple.Tuple {
	var tp tuple.Tuple
	tp.SetInt(tuple.Unique1, v)
	return tp
}

// insT inserts a freshly built tuple (Insert borrows a pointer and copies).
func insT(ht *HashTable, a *cost.Acct, v int32, h uint64) []tuple.Tuple {
	tp := mk(v)
	return ht.Insert(a, &tp, h)
}

func TestLoadHashPartShortCircuitProperty(t *testing.T) {
	c := NewLocal(8, nil)
	tuples := wisconsin.Generate(4000, 1)
	rel, err := Load(c, "A", tuples, HashPart, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for s, f := range rel.Fragments {
		total += f.Len()
		// Every tuple at site s must satisfy Hash(u1) mod 8 == s.
		var bad int
		fs := f
		a := &cost.Acct{}
		fs.Scan(a, func(tp *tuple.Tuple) bool {
			if int(split.Hash(tp.Int(tuple.Unique1), 0)%8) != s {
				bad++
			}
			return true
		})
		if bad != 0 {
			t.Fatalf("site %d holds %d misplaced tuples", s, bad)
		}
	}
	if total != 4000 {
		t.Fatalf("fragments hold %d tuples", total)
	}
	if rel.Bytes() != 4000*tuple.Bytes {
		t.Fatalf("Bytes = %d", rel.Bytes())
	}
}

func TestLoadRoundRobinBalanced(t *testing.T) {
	c := NewLocal(8, nil)
	rel, err := Load(c, "A", wisconsin.Generate(800, 2), RoundRobin, tuple.Unique1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rel.Fragments {
		if f.Len() != 100 {
			t.Fatalf("round-robin fragment has %d tuples", f.Len())
		}
	}
}

func TestLoadRangeUniformBalancedAndOrdered(t *testing.T) {
	c := NewLocal(8, nil)
	// Heavily skewed values: range-uniform must still balance counts.
	tuples := wisconsin.GenerateSkewed(8000, 3)
	rel, err := Load(c, "S", tuples, RangeUniform, tuple.Normal)
	if err != nil {
		t.Fatal(err)
	}
	var prevMax int32 = -1 << 31
	for _, s := range rel.FragmentSites() {
		f := rel.Fragments[s]
		if f.Len() != 1000 {
			t.Fatalf("range fragment at %d has %d tuples, want 1000", s, f.Len())
		}
		var lo, hi int32 = 1<<31 - 1, -1 << 31
		a := &cost.Acct{}
		f.Scan(a, func(tp *tuple.Tuple) bool {
			v := tp.Int(tuple.Normal)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			return true
		})
		if lo < prevMax {
			t.Fatalf("range fragments overlap: site %d min %d < previous max %d", s, lo, prevMax)
		}
		prevMax = hi
	}
}

func TestLoadValidation(t *testing.T) {
	c := NewLocal(2, nil)
	if _, err := Load(c, "A", nil, Strategy(99), 0); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if _, err := Load(c, "A", nil, HashPart, -1); err == nil {
		t.Fatal("bad attribute should error")
	}
	empty := &Cluster{Model: cost.Default(), Net: netsim.New(cost.Default())}
	if _, err := Load(empty, "A", nil, HashPart, 0); err == nil {
		t.Fatal("cluster without disks should error")
	}
}

func TestStrategyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || HashPart.String() != "hashed" ||
		RangeUniform.String() != "range-uniform" {
		t.Fatal("Strategy.String wrong")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy should still print")
	}
}

func TestHashTableBasic(t *testing.T) {
	m := cost.Default()
	ht := NewHashTable(m, 1<<20, tuple.Unique1)
	var a cost.Acct
	for i := int32(0); i < 1000; i++ {
		h := split.Hash(i, 0)
		if AboveCutoff(ht.Cutoff(), h) {
			t.Fatal("unexpected cutoff with huge capacity")
		}
		if ev := insT(ht, &a, i, h); len(ev) != 0 {
			t.Fatal("unexpected eviction")
		}
	}
	if ht.Len() != 1000 || ht.Overflowed() {
		t.Fatalf("Len=%d overflowed=%v", ht.Len(), ht.Overflowed())
	}
	found := 0
	ht.Probe(&a, split.Hash(500, 0), 500, func(match *tuple.Tuple) {
		if match.Int(tuple.Unique1) != 500 {
			t.Fatal("probe matched wrong tuple")
		}
		found++
	})
	if found != 1 {
		t.Fatalf("found %d matches", found)
	}
	ht.Probe(&a, split.Hash(5000, 0), 5000, func(*tuple.Tuple) { t.Fatal("ghost match") })
}

func TestHashTableDuplicates(t *testing.T) {
	ht := NewHashTable(cost.Default(), 1<<20, tuple.Unique1)
	var a cost.Acct
	for i := 0; i < 7; i++ {
		insT(ht, &a, 99, split.Hash(99, 0))
	}
	n := 0
	ht.Probe(&a, split.Hash(99, 0), 99, func(*tuple.Tuple) { n++ })
	if n != 7 {
		t.Fatalf("duplicate probe found %d, want 7", n)
	}
	avg, maxLen := ht.ChainStats()
	if avg < 1 || maxLen < 7 {
		t.Fatalf("chain stats avg=%v max=%d", avg, maxLen)
	}
}

// TestChainStatsMatchesSlotCounts checks the chain walk against the
// definition — entries counted per slot — bit for bit, across inserts with
// duplicate keys and the clearing passes that rebuild the chains.
func TestChainStatsMatchesSlotCounts(t *testing.T) {
	ht := NewHashTable(cost.Default(), 300*tuple.Bytes, tuple.Unique1)
	var a cost.Acct
	for i := int32(0); i < 2000; i++ {
		v := (i * 7919) % 450 // every key repeats
		h := split.Hash(v, 3)
		if !AboveCutoff(ht.Cutoff(), h) {
			insT(ht, &a, v, h)
		}
		if i%97 != 0 {
			continue
		}
		lengths := make(map[int]int)
		for j := range ht.entries {
			lengths[ht.slot(ht.entries[j].h)]++
		}
		wantAvg, wantMax := 0.0, 0
		if len(lengths) > 0 {
			total := 0
			for _, l := range lengths {
				total += l
				wantMax = max(wantMax, l)
			}
			wantAvg = float64(total) / float64(len(lengths))
		}
		if avg, maxLen := ht.ChainStats(); avg != wantAvg || maxLen != wantMax {
			t.Fatalf("after %d inserts: ChainStats = (%v, %d), want (%v, %d)", i+1, avg, maxLen, wantAvg, wantMax)
		}
	}
	if !ht.Overflowed() {
		t.Fatal("table never overflowed; clearing passes untested")
	}
}

func TestHashTableOverflowMachinery(t *testing.T) {
	m := cost.Default()
	capBytes := int64(100 * tuple.Bytes) // room for 100 tuples
	ht := NewHashTable(m, capBytes, tuple.Unique1)
	var a cost.Acct
	inTable, overflowed := 0, 0
	for i := int32(0); i < 500; i++ {
		h := split.Hash(i, 7) // mixed hash so the histogram sees spread keys
		if AboveCutoff(ht.Cutoff(), h) {
			overflowed++
			continue
		}
		ev := insT(ht, &a, i, h)
		inTable++
		inTable -= len(ev)
		overflowed += len(ev)
	}
	if !ht.Overflowed() {
		t.Fatal("table never overflowed")
	}
	if ht.BytesUsed() > capBytes {
		t.Fatalf("table exceeds capacity: %d > %d", ht.BytesUsed(), capBytes)
	}
	if inTable != ht.Len() {
		t.Fatalf("bookkeeping mismatch: %d vs %d", inTable, ht.Len())
	}
	if inTable+overflowed != 500 {
		t.Fatalf("tuples lost: %d + %d != 500", inTable, overflowed)
	}
	// Every clearing pass frees roughly 10%: after the first overflow the
	// cutoff only decreases.
	if ht.Cutoff() == 0 {
		t.Fatal("cutoff collapsed to zero on uniform data")
	}
	if ht.Overflows() < 1 {
		t.Fatal("no clearing passes recorded")
	}
}

func TestHashTableCutoffMonotone(t *testing.T) {
	m := cost.Default()
	ht := NewHashTable(m, 50*tuple.Bytes, tuple.Unique1)
	var a cost.Acct
	prev := ht.Cutoff()
	for i := int32(0); i < 2000; i++ {
		h := split.Hash(i, 7)
		if AboveCutoff(ht.Cutoff(), h) {
			continue
		}
		insT(ht, &a, i, h)
		if c := ht.Cutoff(); c > prev {
			t.Fatal("cutoff increased")
		} else {
			prev = c
		}
	}
	// Invariant: everything left in the table hashes below the cutoff.
	n := 0
	for i := int32(0); i < 2000; i++ {
		h := split.Hash(i, 7)
		ht.Probe(&a, h, i, func(*tuple.Tuple) {
			n++
			if AboveCutoff(ht.Cutoff(), h) {
				t.Fatal("table retains tuple above cutoff")
			}
		})
	}
	if n != ht.Len() {
		t.Fatalf("probe found %d, table has %d", n, ht.Len())
	}
}

func TestHashTableInsertAboveCutoffPanics(t *testing.T) {
	ht := NewHashTable(cost.Default(), 10*tuple.Bytes, tuple.Unique1)
	var a cost.Acct
	for i := int32(0); i < 100; i++ {
		h := split.Hash(i, 9)
		if !AboveCutoff(ht.Cutoff(), h) {
			insT(ht, &a, i, h)
		}
	}
	if !ht.Overflowed() {
		t.Skip("table did not overflow with this data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert above cutoff should panic")
		}
	}()
	insT(ht, &a, 0, ^uint64(0))
}
