// Package gammaql implements a tiny interactive command language for
// driving the simulated Gamma machine: generating Wisconsin benchmark
// relations, declustering them, and running the four parallel join
// algorithms with the paper's knobs. It backs cmd/gammaql.
package gammaql

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gammajoin/internal/core"
	"gammajoin/internal/gamma"
	"gammajoin/internal/optimizer"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// Session holds the machine and named relations of one interactive session.
type Session struct {
	c    *gamma.Cluster
	out  io.Writer
	rels map[string]*gamma.Relation
	raw  map[string][]tuple.Tuple
	seed uint64
}

// NewSession creates a session on the given cluster, writing results to out.
func NewSession(c *gamma.Cluster, out io.Writer) *Session {
	return &Session{
		c:    c,
		out:  out,
		rels: make(map[string]*gamma.Relation),
		raw:  make(map[string][]tuple.Tuple),
		seed: 1989,
	}
}

// Help returns the command summary.
func Help() string {
	return `commands (case-insensitive keywords, one per line):
  create <name> <cardinality> [skewed] partition by <roundrobin|hash|range> <attr>
  create <name> bprime <source> <k> partition by <strategy> <attr>
  create <name> subset <source> <k> partition by <strategy> <attr>
  join <inner> <outer> on <attr> [and <outer-attr>] using <sortmerge|simple|grace|hybrid>
       mem <ratio> [filter] [buckets <n>] [overflow] [nostore]
  plan <inner> <outer> on <attr> [and <outer-attr>] mem <ratio>
                         let the optimizer choose and run the join
  select <rel> [where <attr> <op> <value> [and ...]] [store]
  update <rel> set <attr> <value> [where ...]
  agg <count|sum|min|max|avg> <attr> [by <group-attr>] on <rel> [where ...]
  show <name>            relation statistics
  relations              list loaded relations
  seed <n>               set the generator seed
  help
  quit`
}

// Exec parses and executes one command line. It returns io.EOF for quit.
func (s *Session) Exec(line string) error {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	if line == "" || strings.HasPrefix(line, "--") {
		return nil
	}
	toks := strings.Fields(line)
	switch strings.ToLower(toks[0]) {
	case "help":
		fmt.Fprintln(s.out, Help())
		return nil
	case "quit", "exit":
		return io.EOF
	case "seed":
		if len(toks) != 2 {
			return fmt.Errorf("usage: seed <n>")
		}
		n, err := strconv.ParseUint(toks[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", toks[1])
		}
		s.seed = n
		return nil
	case "relations":
		names := make([]string, 0, len(s.rels))
		for n := range s.rels {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := s.rels[n]
			fmt.Fprintf(s.out, "%s: %d tuples, %s on %s\n",
				n, r.N, r.Strategy, tuple.IntAttrNames[r.PartAttr])
		}
		return nil
	case "show":
		if len(toks) != 2 {
			return fmt.Errorf("usage: show <name>")
		}
		return s.show(toks[1])
	case "create":
		return s.create(toks[1:])
	case "join":
		return s.join(toks[1:])
	case "plan":
		return s.plan(toks[1:])
	case "select":
		return s.sel(toks[1:])
	case "update":
		return s.update(toks[1:])
	case "agg":
		return s.agg(toks[1:])
	default:
		return fmt.Errorf("unknown command %q (try help)", toks[0])
	}
}

func (s *Session) show(name string) error {
	r, ok := s.rels[name]
	if !ok {
		return fmt.Errorf("no relation %q", name)
	}
	fmt.Fprintf(s.out, "%s: %d tuples (%d bytes), %s-declustered on %s\n",
		name, r.N, r.Bytes(), r.Strategy, tuple.IntAttrNames[r.PartAttr])
	for site, f := range r.Fragments {
		fmt.Fprintf(s.out, "  site %d: %d tuples, %d pages\n", site, f.Len(), f.Pages())
	}
	return nil
}

func parseStrategy(w string) (gamma.Strategy, error) {
	switch strings.ToLower(w) {
	case "roundrobin", "round-robin", "rr":
		return gamma.RoundRobin, nil
	case "hash", "hashed":
		return gamma.HashPart, nil
	case "range":
		return gamma.RangeUniform, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", w)
	}
}

func parseAlg(w string) (core.Algorithm, error) {
	switch strings.ToLower(w) {
	case "sortmerge", "sort-merge", "sm":
		return core.SortMerge, nil
	case "simple":
		return core.Simple, nil
	case "grace":
		return core.Grace, nil
	case "hybrid":
		return core.Hybrid, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", w)
	}
}

// create: <name> <n> [skewed] partition by <strategy> <attr>
//
//	<name> bprime <source> <k> partition by <strategy> <attr>
//	<name> subset <source> <k> partition by <strategy> <attr>
func (s *Session) create(toks []string) error {
	if len(toks) < 6 {
		return fmt.Errorf("usage: create <name> ... partition by <strategy> <attr>")
	}
	name := toks[0]
	// Locate "partition by".
	pb := -1
	for i := 0; i+1 < len(toks); i++ {
		if strings.EqualFold(toks[i], "partition") && strings.EqualFold(toks[i+1], "by") {
			pb = i
			break
		}
	}
	if pb < 0 || pb+4 != len(toks) {
		return fmt.Errorf("create must end with: partition by <strategy> <attr>")
	}
	strat, err := parseStrategy(toks[pb+2])
	if err != nil {
		return err
	}
	attrIdx, err := tuple.AttrIndex(toks[pb+3])
	if err != nil {
		return err
	}

	var tuples []tuple.Tuple
	spec := toks[1:pb]
	switch strings.ToLower(spec[0]) {
	case "bprime", "subset":
		if len(spec) != 3 {
			return fmt.Errorf("usage: create <name> %s <source> <k> ...", spec[0])
		}
		src, ok := s.raw[spec[1]]
		if !ok {
			return fmt.Errorf("no source relation %q", spec[1])
		}
		k, err := strconv.Atoi(spec[2])
		if err != nil || k <= 0 {
			return fmt.Errorf("bad cardinality %q", spec[2])
		}
		if strings.EqualFold(spec[0], "bprime") {
			tuples = wisconsin.Bprime(src, int32(k))
		} else {
			tuples = wisconsin.RandomSubset(src, k, s.seed+1)
		}
	default:
		n, err := strconv.Atoi(spec[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad cardinality %q", spec[0])
		}
		skewed := false
		if len(spec) == 2 && strings.EqualFold(spec[1], "skewed") {
			skewed = true
		} else if len(spec) > 1 {
			return fmt.Errorf("unexpected token %q", spec[1])
		}
		if skewed {
			tuples = wisconsin.GenerateSkewed(n, s.seed)
		} else {
			tuples = wisconsin.Generate(n, s.seed)
		}
	}

	rel, err := gamma.Load(s.c, name, tuples, strat, attrIdx)
	if err != nil {
		return err
	}
	s.rels[name] = rel
	s.raw[name] = tuples
	fmt.Fprintf(s.out, "created %s: %d tuples, %s on %s\n",
		name, rel.N, rel.Strategy, tuple.IntAttrNames[attrIdx])
	return nil
}

// join: <inner> <outer> on <attr> [and <outer-attr>] using <alg> mem <ratio>
// [filter] [buckets <n>] [overflow] [nostore]
func (s *Session) join(toks []string) error {
	if len(toks) < 7 {
		return fmt.Errorf("usage: join <inner> <outer> on <attr> using <alg> mem <ratio> [filter]")
	}
	inner, ok := s.rels[toks[0]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[0])
	}
	outer, ok := s.rels[toks[1]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[1])
	}
	if !strings.EqualFold(toks[2], "on") {
		return fmt.Errorf("expected ON after relation names")
	}
	rAttr, err := tuple.AttrIndex(toks[3])
	if err != nil {
		return err
	}
	sAttr := rAttr
	i := 4
	if i+1 < len(toks) && strings.EqualFold(toks[i], "and") {
		if sAttr, err = tuple.AttrIndex(toks[i+1]); err != nil {
			return err
		}
		i += 2
	}
	spec := core.Spec{
		R: inner, S: outer,
		RAttr: rAttr, SAttr: sAttr,
		StoreResult: true,
	}
	for i < len(toks) {
		switch strings.ToLower(toks[i]) {
		case "using":
			if i+1 >= len(toks) {
				return fmt.Errorf("USING needs an algorithm")
			}
			if spec.Alg, err = parseAlg(toks[i+1]); err != nil {
				return err
			}
			i += 2
		case "mem":
			if i+1 >= len(toks) {
				return fmt.Errorf("MEM needs a ratio")
			}
			if spec.MemRatio, err = strconv.ParseFloat(toks[i+1], 64); err != nil {
				return fmt.Errorf("bad memory ratio %q", toks[i+1])
			}
			i += 2
		case "filter":
			spec.BitFilter = true
			i++
		case "buckets":
			if i+1 >= len(toks) {
				return fmt.Errorf("BUCKETS needs a count")
			}
			if spec.ForceBuckets, err = strconv.Atoi(toks[i+1]); err != nil {
				return fmt.Errorf("bad bucket count %q", toks[i+1])
			}
			i += 2
		case "overflow":
			spec.AllowOverflow = true
			i++
		case "nostore":
			spec.StoreResult = false
			i++
		default:
			return fmt.Errorf("unexpected token %q", toks[i])
		}
	}
	if spec.MemRatio <= 0 {
		return fmt.Errorf("join needs MEM <ratio>")
	}

	rep, err := core.Run(s.c, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%v join: %d result tuples in %.2f simulated seconds\n",
		rep.Alg, rep.ResultCount, rep.Response.Seconds())
	if rep.Buckets > 0 {
		fmt.Fprintf(s.out, "  buckets: %d\n", rep.Buckets)
	}
	if rep.FilterBitsPerSite > 0 {
		fmt.Fprintf(s.out, "  bit filter: %d bits/site, %d outer tuples eliminated\n",
			rep.FilterBitsPerSite, rep.FilterDropped)
	}
	if rep.ROverflowed > 0 {
		fmt.Fprintf(s.out, "  overflow: %d levels, %d clears, %d R / %d S tuples\n",
			rep.OverflowLevels, rep.OverflowClears, rep.ROverflowed, rep.SOverflowed)
	}
	fmt.Fprintf(s.out, "  network: %d local / %d remote tuples; disk: %d reads / %d writes\n",
		rep.Net.TuplesLocal, rep.Net.TuplesRemote, rep.Disk.PagesRead, rep.Disk.PagesWritten)
	for _, p := range rep.Phases {
		fmt.Fprintf(s.out, "  phase %-28s %8.2fs\n", p.Name, p.Elapsed().Seconds())
	}
	return nil
}

// parseWhere parses "<attr> <op> <value> [and <attr> <op> <value>]..."
// starting at toks[i]; it returns the predicate and the next index.
func parseWhere(toks []string, i int) (pred.Pred, int, error) {
	var conj pred.And
	for {
		if i+2 >= len(toks) {
			return nil, i, fmt.Errorf("where needs <attr> <op> <value>")
		}
		attr, err := tuple.AttrIndex(toks[i])
		if err != nil {
			return nil, i, err
		}
		var op pred.Op
		switch toks[i+1] {
		case "=", "==":
			op = pred.EQ
		case "<>", "!=":
			op = pred.NE
		case "<":
			op = pred.LT
		case "<=":
			op = pred.LE
		case ">":
			op = pred.GT
		case ">=":
			op = pred.GE
		default:
			return nil, i, fmt.Errorf("unknown operator %q", toks[i+1])
		}
		v, err := strconv.Atoi(toks[i+2])
		if err != nil {
			return nil, i, fmt.Errorf("bad constant %q", toks[i+2])
		}
		conj = append(conj, pred.Cmp{Attr: attr, Op: op, Val: int32(v)})
		i += 3
		if i < len(toks) && strings.EqualFold(toks[i], "and") {
			i++
			continue
		}
		return conj, i, nil
	}
}

// sel: <rel> [where ...] [store]
func (s *Session) sel(toks []string) error {
	if len(toks) < 1 {
		return fmt.Errorf("usage: select <rel> [where <attr> <op> <value>] [store]")
	}
	rel, ok := s.rels[toks[0]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[0])
	}
	spec := core.SelectSpec{Rel: rel}
	i := 1
	var err error
	for i < len(toks) {
		switch strings.ToLower(toks[i]) {
		case "where":
			if spec.Pred, i, err = parseWhere(toks, i+1); err != nil {
				return err
			}
		case "store":
			spec.StoreResult = true
			i++
		default:
			return fmt.Errorf("unexpected token %q", toks[i])
		}
	}
	rep, _, err := core.RunSelect(s.c, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "selected %d tuples in %.2f simulated seconds\n",
		rep.Rows, rep.Response.Seconds())
	return nil
}

// agg: <fn> <attr> [by <group>] on <rel> [where ...]
func (s *Session) agg(toks []string) error {
	if len(toks) < 4 {
		return fmt.Errorf("usage: agg <fn> <attr> [by <group>] on <rel> [where ...]")
	}
	var fn core.AggFn
	switch strings.ToLower(toks[0]) {
	case "count":
		fn = core.Count
	case "sum":
		fn = core.Sum
	case "min":
		fn = core.Min
	case "max":
		fn = core.Max
	case "avg":
		fn = core.Avg
	default:
		return fmt.Errorf("unknown aggregate %q", toks[0])
	}
	attr, err := tuple.AttrIndex(toks[1])
	if err != nil {
		return err
	}
	group := -1
	i := 2
	if strings.EqualFold(toks[i], "by") {
		if i+1 >= len(toks) {
			return fmt.Errorf("BY needs an attribute")
		}
		if group, err = tuple.AttrIndex(toks[i+1]); err != nil {
			return err
		}
		i += 2
	}
	if i >= len(toks) || !strings.EqualFold(toks[i], "on") || i+1 >= len(toks) {
		return fmt.Errorf("expected ON <rel>")
	}
	rel, ok := s.rels[toks[i+1]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[i+1])
	}
	i += 2
	spec := core.AggSpec{Rel: rel, GroupAttr: group, AggAttr: attr, Fn: fn}
	if i < len(toks) {
		if !strings.EqualFold(toks[i], "where") {
			return fmt.Errorf("unexpected token %q", toks[i])
		}
		if spec.Pred, i, err = parseWhere(toks, i+1); err != nil {
			return err
		}
		if i < len(toks) {
			return fmt.Errorf("unexpected token %q", toks[i])
		}
	}
	rep, groups, err := core.RunAggregate(s.c, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%d group(s) in %.2f simulated seconds\n",
		rep.Rows, rep.Response.Seconds())
	limit := len(groups)
	if limit > 20 {
		limit = 20
	}
	for _, g := range groups[:limit] {
		if group < 0 {
			fmt.Fprintf(s.out, "  %s(%s) = %v\n", fn, tuple.IntAttrNames[attr], g.Value)
		} else {
			fmt.Fprintf(s.out, "  %s=%d: %v\n", tuple.IntAttrNames[group], g.Group, g.Value)
		}
	}
	if limit < len(groups) {
		fmt.Fprintf(s.out, "  ... (%d more groups)\n", len(groups)-limit)
	}
	return nil
}

// plan: <inner> <outer> on <attr> [and <outer-attr>] mem <ratio>
func (s *Session) plan(toks []string) error {
	if len(toks) < 6 {
		return fmt.Errorf("usage: plan <inner> <outer> on <attr> mem <ratio>")
	}
	inner, ok := s.rels[toks[0]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[0])
	}
	outer, ok := s.rels[toks[1]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[1])
	}
	if !strings.EqualFold(toks[2], "on") {
		return fmt.Errorf("expected ON")
	}
	rAttr, err := tuple.AttrIndex(toks[3])
	if err != nil {
		return err
	}
	sAttr := rAttr
	i := 4
	if i+1 < len(toks) && strings.EqualFold(toks[i], "and") {
		if sAttr, err = tuple.AttrIndex(toks[i+1]); err != nil {
			return err
		}
		i += 2
	}
	if i+1 >= len(toks) || !strings.EqualFold(toks[i], "mem") {
		return fmt.Errorf("expected MEM <ratio>")
	}
	ratio, err := strconv.ParseFloat(toks[i+1], 64)
	if err != nil || ratio <= 0 {
		return fmt.Errorf("bad memory ratio %q", toks[i+1])
	}
	memBytes, err := core.RatioBytes(ratio, inner.Bytes())
	if err != nil {
		return err
	}
	pl := optimizer.PlanJoin(s.c, inner, outer, rAttr, sAttr, memBytes)
	fmt.Fprintf(s.out, "optimizer: %v join on sites %v (skew %.2f, HPJA %v, buckets %d, filters %v)\n",
		pl.Alg, pl.JoinSites, pl.Stats.InnerSkew, pl.Stats.HPJA, pl.Buckets, pl.BitFilter)
	rep, err := core.Run(s.c, pl.Spec(inner, outer, rAttr, sAttr))
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%v join: %d result tuples in %.2f simulated seconds\n",
		rep.Alg, rep.ResultCount, rep.Response.Seconds())
	return nil
}

// update: <rel> set <attr> <value> [where ...]
func (s *Session) update(toks []string) error {
	if len(toks) < 4 || !strings.EqualFold(toks[1], "set") {
		return fmt.Errorf("usage: update <rel> set <attr> <value> [where ...]")
	}
	rel, ok := s.rels[toks[0]]
	if !ok {
		return fmt.Errorf("no relation %q", toks[0])
	}
	attr, err := tuple.AttrIndex(toks[2])
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(toks[3])
	if err != nil {
		return fmt.Errorf("bad value %q", toks[3])
	}
	spec := core.UpdateSpec{Rel: rel, SetAttr: attr, SetVal: int32(v)}
	i := 4
	if i < len(toks) {
		if !strings.EqualFold(toks[i], "where") {
			return fmt.Errorf("unexpected token %q", toks[i])
		}
		if spec.Pred, i, err = parseWhere(toks, i+1); err != nil {
			return err
		}
		if i < len(toks) {
			return fmt.Errorf("unexpected token %q", toks[i])
		}
	}
	rep, err := core.RunUpdate(s.c, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "updated %d tuples in %.2f simulated seconds\n",
		rep.Rows, rep.Response.Seconds())
	return nil
}
