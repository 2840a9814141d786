package gammajoin

import (
	"fmt"

	"gammajoin/internal/core"
	"gammajoin/internal/gamma"
	"gammajoin/internal/optimizer"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
)

// This file exposes Gamma's non-join operators (selection/projection and
// aggregation) and the optimizer's automatic join planning.

// Predicate is a compiled selection predicate.
type Predicate = pred.Pred

// Where builds a single-comparison predicate, e.g. Where("unique1", "<", 100).
func Where(attr, op string, value int32) (Predicate, error) {
	idx, err := tuple.AttrIndex(attr)
	if err != nil {
		return nil, err
	}
	var o pred.Op
	switch op {
	case "=", "==":
		o = pred.EQ
	case "<>", "!=":
		o = pred.NE
	case "<":
		o = pred.LT
	case "<=":
		o = pred.LE
	case ">":
		o = pred.GT
	case ">=":
		o = pred.GE
	default:
		return nil, fmt.Errorf("gammajoin: unknown comparison operator %q", op)
	}
	return pred.Cmp{Attr: idx, Op: o, Val: value}, nil
}

// All combines predicates conjunctively.
func All(ps ...Predicate) Predicate { return pred.And(ps) }

// Any combines predicates disjunctively.
func Any(ps ...Predicate) Predicate { return pred.Or(ps) }

// OpReport describes a non-join operator execution.
type OpReport = core.OpReport

// SelectOptions configure Machine.Select.
type SelectOptions struct {
	// Where filters tuples (nil selects everything).
	Where Predicate
	// Project names the integer attributes to retain (nil keeps all).
	Project []string
	// Store materializes the result round-robin across the disks.
	Store bool
	// Collect returns the qualifying tuples. They are grouped by the site
	// that scanned them, in ascending site order, and keep that site's scan
	// order within a site.
	Collect bool
}

// Select runs a parallel selection (with optional projection) over a
// relation. Selections execute only on the processors with disks, as in
// Gamma.
func (m *Machine) Select(rel *Relation, opts SelectOptions) (*OpReport, []Tuple, error) {
	var project []int
	for _, name := range opts.Project {
		idx, err := tuple.AttrIndex(name)
		if err != nil {
			return nil, nil, err
		}
		project = append(project, idx)
	}
	return core.RunSelect(m.c, core.SelectSpec{
		Rel:         rel,
		Pred:        opts.Where,
		Project:     project,
		StoreResult: opts.Store,
		Collect:     opts.Collect,
	})
}

// AggGroup is one aggregation result group.
type AggGroup = core.AggGroup

// Aggregate runs a parallel aggregate: fn is one of "count", "sum", "min",
// "max", "avg"; groupBy may be empty for a scalar aggregate. The final
// aggregation runs on the diskless processors when the machine has them.
func (m *Machine) Aggregate(rel *Relation, fn, attr, groupBy string, where Predicate) (*OpReport, []AggGroup, error) {
	var f core.AggFn
	switch fn {
	case "count":
		f = core.Count
	case "sum":
		f = core.Sum
	case "min":
		f = core.Min
	case "max":
		f = core.Max
	case "avg":
		f = core.Avg
	default:
		return nil, nil, fmt.Errorf("gammajoin: unknown aggregate %q", fn)
	}
	aggIdx, err := tuple.AttrIndex(attr)
	if err != nil {
		return nil, nil, err
	}
	groupIdx := -1
	if groupBy != "" {
		if groupIdx, err = tuple.AttrIndex(groupBy); err != nil {
			return nil, nil, err
		}
	}
	return core.RunAggregate(m.c, core.AggSpec{
		Rel:       rel,
		GroupAttr: groupIdx,
		AggAttr:   aggIdx,
		Fn:        f,
		Pred:      where,
	})
}

// JoinPlan is the optimizer's decision for a join: which algorithm, where
// to run it, how many buckets, and the statistics behind the choice.
type JoinPlan = optimizer.Plan

// PlanJoin asks the optimizer (implementing the paper's Section 5
// conclusions) how to execute inner ⋈ outer with memBytes of aggregate join
// memory: Hybrid for uniform data, sort-merge when the inner is skewed and
// memory is limited, diskless placement only for non-HPJA joins with
// sufficient memory, and bit filters always.
func (m *Machine) PlanJoin(inner, outer *Relation, innerAttr, outerAttr string, memBytes int64) (JoinPlan, error) {
	ri, err := tuple.AttrIndex(innerAttr)
	if err != nil {
		return JoinPlan{}, err
	}
	si, err := tuple.AttrIndex(outerAttr)
	if err != nil {
		return JoinPlan{}, err
	}
	return optimizer.PlanJoin(m.c, inner, outer, ri, si, memBytes), nil
}

// AutoJoin plans and executes a join in one call.
func (m *Machine) AutoJoin(inner, outer *Relation, innerAttr, outerAttr string, memBytes int64) (JoinPlan, *Report, error) {
	plan, err := m.PlanJoin(inner, outer, innerAttr, outerAttr, memBytes)
	if err != nil {
		return plan, nil, err
	}
	ri, _ := tuple.AttrIndex(innerAttr)
	si, _ := tuple.AttrIndex(outerAttr)
	rep, err := core.Run(m.c, plan.Spec(inner, outer, ri, si))
	return plan, rep, err
}

// Index is a declustered B+-tree index (one tree per fragment site).
type Index = gamma.Index

// BuildIndex constructs a B+-tree index on the named integer attribute at
// every fragment site (a load-time activity, not charged to queries).
func (m *Machine) BuildIndex(rel *Relation, attr string) (*Index, error) {
	idx, err := tuple.AttrIndex(attr)
	if err != nil {
		return nil, err
	}
	return gamma.BuildIndex(m.c, rel, idx)
}

// IndexSelect runs a selection through an index: each site descends its
// B+-tree and fetches only qualifying pages. The predicate must be a
// conjunction of comparisons on the indexed attribute.
func (m *Machine) IndexSelect(ix *Index, where Predicate, collect bool) (*OpReport, []Tuple, error) {
	return core.RunIndexSelect(m.c, ix, where, collect)
}

// Update runs a parallel in-place update: SET attr = value WHERE where.
// Updating the partitioning attribute of a hash- or range-declustered
// relation is rejected (it would invalidate tuple placement).
func (m *Machine) Update(rel *Relation, where Predicate, attr string, value int32) (*OpReport, error) {
	idx, err := tuple.AttrIndex(attr)
	if err != nil {
		return nil, err
	}
	return core.RunUpdate(m.c, core.UpdateSpec{
		Rel:     rel,
		Pred:    where,
		SetAttr: idx,
		SetVal:  value,
	})
}
