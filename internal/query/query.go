// Package query provides Gamma's query layer in miniature: queries are
// trees of relational operators (scans with selections feeding a join),
// the optimizer chooses the join strategy and placement, selections are
// pushed into the scans, and EXPLAIN renders the chosen plan. This is the
// "tree of operators" execution model Section 2.2 of the paper sketches,
// restricted to the single-join query shapes the paper evaluates
// (joinABprime, joinAselB, joinCselAselB).
package query

import (
	"fmt"
	"strings"

	"gammajoin/internal/core"
	"gammajoin/internal/gamma"
	"gammajoin/internal/optimizer"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
)

// Scan reads one declustered relation, optionally filtered.
type Scan struct {
	Rel  *gamma.Relation
	Pred pred.Pred // nil = no selection
}

// Join joins two scans on integer attributes. The optimizer picks the
// algorithm, placement, bucket count, and filtering unless Force is set.
type Join struct {
	Inner, Outer         Scan
	InnerAttr, OuterAttr int
	// MemBytes is the aggregate join memory; if 0, MemRatio of the
	// (estimated, post-selection) inner size is used, defaulting to 1.0.
	MemBytes int64
	MemRatio float64
	// Force overrides the optimizer's algorithm choice.
	Force *core.Algorithm
	// InnerSelectivity is the optimizer's estimate of the fraction of
	// inner tuples surviving the selection (1.0 if unset; Gamma would
	// derive it from catalog statistics).
	InnerSelectivity float64
}

// Plan is an optimized, executable query.
type Plan struct {
	Join   Join
	Opt    optimizer.Plan
	Spec   core.Spec
	Remote bool // join placed on diskless processors
}

// Prepare runs the optimizer over the query and returns the executable
// plan. Selections are pushed into the join's scans.
func Prepare(c *gamma.Cluster, q Join) (*Plan, error) {
	if q.Inner.Rel == nil || q.Outer.Rel == nil {
		return nil, fmt.Errorf("query: join needs two scans")
	}
	if q.InnerAttr < 0 || q.InnerAttr >= tuple.NumInts ||
		q.OuterAttr < 0 || q.OuterAttr >= tuple.NumInts {
		return nil, fmt.Errorf("query: invalid join attributes %d/%d", q.InnerAttr, q.OuterAttr)
	}
	sel := q.InnerSelectivity
	if sel <= 0 || sel > 1 {
		sel = 1.0
	}
	effInner := int64(float64(q.Inner.Rel.Bytes()) * sel)
	if effInner < tuple.Bytes {
		effInner = tuple.Bytes
	}
	mem := q.MemBytes
	if mem <= 0 {
		ratio := q.MemRatio
		if ratio <= 0 {
			ratio = 1.0
		}
		var err error
		if mem, err = core.RatioBytes(ratio, effInner); err != nil {
			return nil, err
		}
	}

	opt := optimizer.PlanJoinSized(c, q.Inner.Rel, q.Outer.Rel, q.InnerAttr, q.OuterAttr, effInner, mem)
	if q.Force != nil {
		opt.Alg = *q.Force
		if opt.Alg == core.SortMerge {
			opt.JoinSites = c.DiskSites()
		}
	}
	spec := opt.Spec(q.Inner.Rel, q.Outer.Rel, q.InnerAttr, q.OuterAttr)
	spec.RPred = q.Inner.Pred
	spec.SPred = q.Outer.Pred
	spec.InnerSizeHint = effInner
	remote := len(opt.JoinSites) > 0 && opt.JoinSites[0] >= len(c.DiskSites())
	return &Plan{Join: q, Opt: opt, Spec: spec, Remote: remote}, nil
}

// Execute runs the plan on the cluster.
func (p *Plan) Execute(c *gamma.Cluster) (*core.Report, error) {
	return core.Run(c, p.Spec)
}

// Explain renders the plan the way a database EXPLAIN would.
func (p *Plan) Explain() string {
	var sb strings.Builder
	placement := "local (disk sites)"
	if p.Remote {
		placement = "remote (diskless sites)"
	}
	fmt.Fprintf(&sb, "JOIN [%v] on %s = %s  (%s", p.Opt.Alg,
		tuple.IntAttrNames[p.Join.InnerAttr], tuple.IntAttrNames[p.Join.OuterAttr], placement)
	if p.Opt.Buckets > 0 {
		fmt.Fprintf(&sb, ", %d buckets", p.Opt.Buckets)
	}
	if p.Opt.BitFilter {
		sb.WriteString(", bit filters")
	}
	fmt.Fprintf(&sb, "; inner skew %.2f, HPJA %v, mem %d KB)\n",
		p.Opt.Stats.InnerSkew, p.Opt.Stats.HPJA, p.Opt.Stats.MemBytes/1024)
	explainScan(&sb, "inner", p.Join.Inner)
	explainScan(&sb, "outer", p.Join.Outer)
	return sb.String()
}

func explainScan(sb *strings.Builder, role string, s Scan) {
	fmt.Fprintf(sb, "  SCAN [%s] %s (%d tuples, %s on %s",
		role, s.Rel.Name, s.Rel.N, s.Rel.Strategy, tuple.IntAttrNames[s.Rel.PartAttr])
	if s.Pred != nil {
		fmt.Fprintf(sb, ", where %v", s.Pred)
	}
	sb.WriteString(")\n")
}
