package gamma

import (
	"fmt"

	"gammajoin/internal/cost"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wiss"
)

// Index is a declustered B+-tree index over one integer attribute of a
// relation: one WiSS B+-tree per fragment, at the fragment's site, mapping
// attribute values to record positions — the index service Gamma's
// selections use.
type Index struct {
	Rel     *Relation
	Attr    int
	trees   []*wiss.BTree // indexed by disk site, like Rel.Fragments
	perPage int
}

// BuildIndex constructs a B+-tree index on the relation's attr at every
// fragment site. Index construction is a load-time activity and is not
// charged to any query.
func BuildIndex(c *Cluster, rel *Relation, attr int) (*Index, error) {
	if rel == nil {
		return nil, fmt.Errorf("gamma: BuildIndex needs a relation")
	}
	if attr < 0 || attr >= tuple.NumInts {
		return nil, fmt.Errorf("gamma: invalid index attribute %d", attr)
	}
	perPage := c.Model.TuplesPerPage(tuple.Bytes)
	idx := &Index{
		Rel:     rel,
		Attr:    attr,
		trees:   make([]*wiss.BTree, len(rel.Fragments)),
		perPage: perPage,
	}
	var sink cost.Acct
	for site, f := range rel.Fragments {
		bt := wiss.NewBTree(64)
		var pos int64
		f.Scan(&sink, func(t *tuple.Tuple) bool {
			bt.Insert(t.Int(attr), wiss.RecordID{
				Page: int32(pos / int64(perPage)),
				Slot: int32(pos % int64(perPage)),
			})
			pos++
			return true
		})
		idx.trees[site] = bt
	}
	return idx, nil
}

// Tree returns the fragment tree at a disk site (tests and diagnostics).
func (ix *Index) Tree(site int) *wiss.BTree { return ix.trees[site] }

// LookupRange charges an index-driven range retrieval at one site and calls
// fn for each qualifying tuple: a descent per lookup plus one random page
// read per distinct page touched, in index order — the access path Gamma's
// selections use when an index matches the predicate.
func (ix *Index) LookupRange(c *Cluster, site int, a *cost.Acct, lo, hi int32,
	fn func(t *tuple.Tuple) bool) error {
	if site < 0 || site >= len(ix.trees) {
		return fmt.Errorf("gamma: no index fragment at site %d", site)
	}
	bt := ix.trees[site]
	d, err := c.Disk(site)
	if err != nil {
		return err
	}
	f := ix.Rel.Fragments[site]
	// Descent cost: ~log_64(n) node visits.
	depth := int64(1)
	for n := bt.Len(); n > 1; n /= 64 {
		depth++
	}
	a.AddCPU(cost.ScaleNs(depth, c.Model.SortCompare))

	lastPage := int32(-1)
	bt.Range(lo, hi, func(key int32, rid wiss.RecordID) bool {
		if rid.Page != lastPage {
			d.ReadRand(a, f.ID())
			lastPage = rid.Page
		}
		a.AddCPU(c.Model.ReadTuple)
		t, ok := f.At(int64(rid.Page)*int64(ix.perPage) + int64(rid.Slot))
		if !ok {
			return false
		}
		return fn(t)
	})
	return nil
}
