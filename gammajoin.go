// Package gammajoin is a library reproduction of the Gamma database
// machine's parallel join subsystem as evaluated in Donovan A. Schneider and
// David J. DeWitt, "A Performance Evaluation of Four Parallel Join
// Algorithms in a Shared-Nothing Multiprocessor Environment" (SIGMOD 1989).
//
// The library provides:
//
//   - a deterministic shared-nothing machine simulator (processor sites with
//     or without disks, page-granular disks, a 2 KB-packet interconnect with
//     short-circuiting, and a Gamma-calibrated cost model);
//   - the four parallel join algorithms of the paper — Sort-Merge, Simple
//     hash, Grace hash, and Hybrid hash — with split-table partitioning,
//     bit-vector filtering, and the histogram/cutoff overflow machinery;
//   - the Wisconsin benchmark workload generators, including the paper's
//     skewed (normal-distributed) variants;
//   - an experiment harness regenerating every figure and table of the
//     paper (see cmd/gammabench).
//
// # Quick start
//
//	m := gammajoin.NewMachine(gammajoin.WithDisks(8))
//	outer := gammajoin.Wisconsin(100000, 1)
//	inner := gammajoin.Bprime(outer, 10000)
//	a, _ := m.Load("A", outer, gammajoin.ByHash, "unique1")
//	b, _ := m.Load("Bprime", inner, gammajoin.ByHash, "unique1")
//	rep, _ := m.Join(b, a, "unique1", "unique1", gammajoin.JoinOptions{
//		Algorithm:   gammajoin.Hybrid,
//		MemoryRatio: 0.5,
//		BitFilter:   true,
//	})
//	fmt.Println(rep.ResultCount, rep.Response)
//
// Response times are simulated: every tuple is really hashed, routed, and
// joined, and the event counts are priced by the cost model, so runs are
// deterministic and reproduce the paper's relative behaviour.
package gammajoin

import (
	"fmt"

	"gammajoin/internal/core"
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// Algorithm selects one of the paper's four parallel join algorithms.
type Algorithm = core.Algorithm

// The four algorithms of the paper.
const (
	SortMerge = core.SortMerge
	Simple    = core.Simple
	Grace     = core.Grace
	Hybrid    = core.Hybrid
)

// Algorithms lists all four algorithms in the paper's presentation order.
var Algorithms = []Algorithm{SortMerge, Simple, Grace, Hybrid}

// Tuple is a Wisconsin benchmark record: 208 bytes in the simulated machine,
// held on the host as its 13 integer attributes (see tuple.Tuple).
type Tuple = tuple.Tuple

// Joined is a composite join result tuple.
type Joined = tuple.Joined

// Relation is a horizontally declustered relation.
type Relation = gamma.Relation

// Report describes one executed join: simulated response time, per-phase
// breakdown, result cardinality, and the network/disk/overflow/filter
// counters behind the paper's analyses.
type Report = core.Report

// Strategy is a tuple declustering strategy.
type Strategy = gamma.Strategy

// Declustering strategies (Section 2.2 of the paper).
const (
	// ByRoundRobin cycles tuples across the disks.
	ByRoundRobin = gamma.RoundRobin
	// ByHash hashes the partitioning attribute; joins on that attribute
	// become HPJA joins and short-circuit the network.
	ByHash = gamma.HashPart
	// ByRange range-partitions with uniform tuple counts per site.
	ByRange = gamma.RangeUniform
)

// CostParams are the tunable hardware parameters of the cost model.
type CostParams = cost.Params

// DefaultCostParams returns the Gamma-calibrated hardware parameters (VAX
// 11/750 processors, 8 KB disk pages, 2 KB packets on an 80 Mbit/s ring).
func DefaultCostParams() CostParams { return cost.DefaultParams() }

// Machine is a simulated Gamma configuration.
type Machine struct {
	c *gamma.Cluster
}

type machineConfig struct {
	disks    int
	diskless int
	params   *cost.Params
}

// Option configures NewMachine.
type Option func(*machineConfig)

// WithDisks sets the number of processors with attached disks (default 8).
func WithDisks(n int) Option { return func(mc *machineConfig) { mc.disks = n } }

// WithDiskless adds diskless join processors (the paper's "remote"
// configuration uses 8).
func WithDiskless(n int) Option { return func(mc *machineConfig) { mc.diskless = n } }

// WithCostParams overrides the hardware cost parameters.
func WithCostParams(p CostParams) Option {
	return func(mc *machineConfig) { mc.params = &p }
}

// NewMachine builds a simulated machine. The default is the paper's "local"
// configuration: 8 processors with disks.
func NewMachine(opts ...Option) *Machine {
	mc := machineConfig{disks: 8}
	for _, o := range opts {
		o(&mc)
	}
	model := cost.Default()
	if mc.params != nil {
		model = cost.NewModel(*mc.params)
	}
	var c *gamma.Cluster
	if mc.diskless > 0 {
		c = gamma.NewRemote(mc.disks, mc.diskless, model)
	} else {
		c = gamma.NewLocal(mc.disks, model)
	}
	return &Machine{c: c}
}

// DiskSites returns the site ids of the processors with disks.
func (m *Machine) DiskSites() []int { return m.c.DiskSites() }

// DisklessSites returns the site ids of the diskless join processors.
func (m *Machine) DisklessSites() []int { return m.c.DisklessSites() }

// Load declusters tuples across the machine's disks under the given
// strategy, partitioned on the named integer attribute (e.g. "unique1").
func (m *Machine) Load(name string, tuples []Tuple, strat Strategy, partAttr string) (*Relation, error) {
	idx, err := tuple.AttrIndex(partAttr)
	if err != nil {
		return nil, err
	}
	return gamma.Load(m.c, name, tuples, strat, idx)
}

// JoinOptions configure one join execution.
type JoinOptions struct {
	// Algorithm selects the join algorithm (default SortMerge, the zero
	// value; set explicitly).
	Algorithm Algorithm
	// MemoryRatio is the aggregate join memory relative to the inner
	// relation size (the paper's x axis); MemoryBytes overrides it.
	MemoryRatio float64
	MemoryBytes int64
	// BitFilter enables Babb bit-vector filtering.
	BitFilter bool
	// JoinSites overrides the joining processors (defaults to diskless
	// sites when present, else the disk sites).
	JoinSites []int
	// ForceBuckets overrides the optimizer's Grace/Hybrid bucket count.
	ForceBuckets int
	// AllowOverflow lets Hybrid run with fewer buckets and resolve the
	// overflow with the Simple-hash mechanism (the paper's "optimistic"
	// strategy at non-integral memory ratios).
	AllowOverflow bool
	// StoreResult materializes the result relation round-robin across the
	// disks (on by default in the paper's benchmark; set via NoStore).
	NoStore bool
	// CollectResults returns the joined tuples in Report.Results. They are
	// grouped by the site that produced them, in ascending site order, and
	// keep that site's processing order within a site.
	CollectResults bool
}

// Join executes inner ⋈ outer on the named integer attributes and returns
// the execution report. The inner relation should be the smaller one.
func (m *Machine) Join(inner, outer *Relation, innerAttr, outerAttr string, opt JoinOptions) (*Report, error) {
	ri, err := tuple.AttrIndex(innerAttr)
	if err != nil {
		return nil, err
	}
	si, err := tuple.AttrIndex(outerAttr)
	if err != nil {
		return nil, err
	}
	if opt.MemoryRatio <= 0 && opt.MemoryBytes <= 0 {
		return nil, fmt.Errorf("gammajoin: JoinOptions needs MemoryRatio or MemoryBytes")
	}
	return core.Run(m.c, core.Spec{
		Alg:            opt.Algorithm,
		R:              inner,
		S:              outer,
		RAttr:          ri,
		SAttr:          si,
		MemRatio:       opt.MemoryRatio,
		MemBytes:       opt.MemoryBytes,
		BitFilter:      opt.BitFilter,
		JoinSites:      opt.JoinSites,
		ForceBuckets:   opt.ForceBuckets,
		AllowOverflow:  opt.AllowOverflow,
		StoreResult:    !opt.NoStore,
		CollectResults: opt.CollectResults,
	})
}

// Wisconsin generates a standard Wisconsin benchmark relation of n tuples
// (unique1/unique2 permutations plus the derived attributes).
func Wisconsin(n int, seed uint64) []Tuple { return wisconsin.Generate(n, seed) }

// WisconsinSkewed generates a Wisconsin relation whose Normal attribute
// follows the paper's normal(mid-domain, 0.75%) skewed distribution.
func WisconsinSkewed(n int, seed uint64) []Tuple { return wisconsin.GenerateSkewed(n, seed) }

// Bprime selects the tuples of rel with unique1 below k — the inner
// relation of the joinABprime benchmark query.
func Bprime(rel []Tuple, k int) []Tuple { return wisconsin.Bprime(rel, int32(k)) }

// RandomSubset picks k distinct tuples uniformly at random (the paper's
// construction for the skew experiments' inner relation).
func RandomSubset(rel []Tuple, k int, seed uint64) []Tuple {
	return wisconsin.RandomSubset(rel, k, seed)
}

// Attr reads the named integer attribute of a tuple.
func Attr(t *Tuple, name string) (int32, error) {
	idx, err := tuple.AttrIndex(name)
	if err != nil {
		return 0, err
	}
	return t.Int(idx), nil
}
