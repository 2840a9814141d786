package core

import (
	"fmt"
	"math"

	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
)

// UpdateSpec describes a parallel in-place update: SET SetAttr = SetVal
// WHERE Pred. Updates, like selections, execute only on the processors with
// attached disks.
type UpdateSpec struct {
	Rel     *gamma.Relation
	Pred    pred.Pred
	SetAttr int
	SetVal  int32
}

// RunUpdate applies the update at every fragment site in parallel, charging
// the scan plus one page write per dirtied page.
func RunUpdate(c *gamma.Cluster, s UpdateSpec) (*OpReport, error) {
	if s.Rel == nil {
		return nil, fmt.Errorf("core: RunUpdate needs a relation")
	}
	if s.SetAttr < 0 || s.SetAttr >= tuple.NumInts {
		return nil, fmt.Errorf("core: invalid update attribute %d", s.SetAttr)
	}
	if s.SetAttr == s.Rel.PartAttr && s.Rel.Strategy != gamma.RoundRobin {
		return nil, fmt.Errorf("core: cannot update the partitioning attribute %q of a %s relation in place",
			tuple.IntAttrNames[s.SetAttr], s.Rel.Strategy)
	}
	c.AcquireRun()
	defer c.ReleaseRun()
	rc := newBareCtx(c, nil)
	p := s.Pred
	if p == nil {
		p = pred.True{}
	}

	counts := make(map[int]*int64, len(s.Rel.Fragments))
	ps := newPhase("update "+s.Rel.Name, opLabels{solo: "update"}, -1)
	ps.solo = map[int][]func(a *cost.Acct){}
	for _, site := range s.Rel.FragmentSites() {
		f := s.Rel.Fragments[site]
		var n int64
		counts[site] = &n
		cnt := &n
		ps.solo[site] = append(ps.solo[site], func(a *cost.Acct) {
			*cnt = f.UpdateWhere(a,
				func(t *tuple.Tuple) bool { return rc.scanPred(a, p, t) },
				func(t *tuple.Tuple) { t.SetInt(s.SetAttr, s.SetVal) })
		})
	}
	if err := rc.runPhase(ps); err != nil {
		return nil, err
	}
	var total int64
	for _, n := range counts {
		total += *n
	}
	return rc.opReport(total), nil
}

// predRange extracts the half-open value interval [lo, hi] that a predicate
// constrains attr to, when the predicate is a conjunction of comparisons on
// that single attribute (the shape an index can serve).
func predRange(p pred.Pred, attr int) (lo, hi int32, ok bool) {
	lo, hi = math.MinInt32, math.MaxInt32
	var walk func(p pred.Pred) bool
	walk = func(p pred.Pred) bool {
		switch q := p.(type) {
		case pred.True:
			return true
		case pred.Cmp:
			if q.Attr != attr {
				return false
			}
			switch q.Op {
			case pred.EQ:
				if q.Val > lo {
					lo = q.Val
				}
				if q.Val < hi {
					hi = q.Val
				}
			case pred.GE:
				if q.Val > lo {
					lo = q.Val
				}
			case pred.GT:
				if q.Val+1 > lo {
					lo = q.Val + 1
				}
			case pred.LE:
				if q.Val < hi {
					hi = q.Val
				}
			case pred.LT:
				if q.Val-1 < hi {
					hi = q.Val - 1
				}
			default:
				return false // NE is not an index range
			}
			return true
		case pred.And:
			for _, sub := range q {
				if !walk(sub) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	if !walk(p) {
		return 0, 0, false
	}
	return lo, hi, true
}

// RunIndexSelect executes a selection through a declustered B+-tree index:
// each fragment site descends its index and fetches only the qualifying
// pages (randomly), instead of scanning the whole fragment — profitable for
// selective predicates, as in Gamma's indexed selections.
func RunIndexSelect(c *gamma.Cluster, ix *gamma.Index, p pred.Pred, collect bool) (*OpReport, []tuple.Tuple, error) {
	if ix == nil {
		return nil, nil, fmt.Errorf("core: RunIndexSelect needs an index")
	}
	if p == nil {
		return nil, nil, fmt.Errorf("core: index selection needs a predicate")
	}
	lo, hi, ok := predRange(p, ix.Attr)
	if !ok {
		return nil, nil, fmt.Errorf("core: predicate %v is not a range on the indexed attribute %s",
			p, tuple.IntAttrNames[ix.Attr])
	}
	c.AcquireRun()
	defer c.ReleaseRun()
	rc := newBareCtx(c, nil)
	counts := make(map[int]*int64, len(ix.Rel.Fragments))
	var collected []tuple.Tuple
	collectedBySite := make(map[int]*[]tuple.Tuple)

	ps := newPhase("index select "+ix.Rel.Name, opLabels{solo: "index select"}, -1)
	ps.solo = map[int][]func(a *cost.Acct){}
	for _, site := range ix.Rel.FragmentSites() {
		var n int64
		counts[site] = &n
		cnt := &n
		var rows []tuple.Tuple
		collectedBySite[site] = &rows
		ps.solo[site] = append(ps.solo[site], func(a *cost.Acct) {
			err := ix.LookupRange(c, site, a, lo, hi, func(t *tuple.Tuple) bool {
				// The residual predicate still runs (it may constrain
				// more tightly than the extracted range, e.g. EQ).
				if !rc.scanPred(a, p, t) {
					return true
				}
				*cnt++
				if collect {
					rows = append(rows, *t)
				}
				return true
			})
			if err != nil {
				rc.fail(fmt.Errorf("core: index select at site %d: %w", site, err))
				return
			}
		})
	}
	if err := rc.runPhase(ps); err != nil {
		return nil, nil, err
	}
	var total int64
	for _, site := range ix.Rel.FragmentSites() {
		total += *counts[site]
		if collect {
			collected = append(collected, *collectedBySite[site]...)
		}
	}
	return rc.opReport(total), collected, nil
}
