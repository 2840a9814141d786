package sched

import (
	"fmt"

	"gammajoin/internal/cost"
	"gammajoin/internal/xrand"
)

// Overload control (docs/SCHEDULER.md "Overload and shedding"): per-query
// deadlines, a bounded admission queue, and deterministic load shedding.
// The paper runs one query at a time on a dedicated machine; an open-
// arrival workload has no such luxury — when offered load exceeds
// capacity, the no-shed engine's response times grow without bound (every
// admitted query makes every later query later: the hockey-stick), while a
// shedding engine gives up on the queries that cannot meet their deadlines
// and keeps goodput — deadline-met completions per second — flat.
//
// Every shed decision is a pure function of the (seeded) workload and the
// engine configuration: queries are shed at exact simulated instants
// (queue overflow at arrival, timeouts at deadline instants the event loop
// steps onto, starvation sheds at admission-refusal barriers), and victim
// selection breaks ties through a seeded hash — so two runs of the same
// workload shed byte-identically, which gammabench's TestGolden pins.

// ShedPolicy selects how the engine sheds load when the workload exceeds
// capacity.
type ShedPolicy int

const (
	// NoShed never sheds: the unbounded-queue baseline. Deadlines are
	// recorded but not enforced; late completions count toward Late and
	// fall out of goodput.
	NoShed ShedPolicy = iota
	// RejectNewest bounds the admission queue at Config.QueueCap: an
	// arrival that would overflow the queue is rejected on the spot
	// (newest-first), and waiting queries that reach their deadline are
	// timed out of the queue. Running queries past their deadline are
	// canceled at the deadline instant.
	RejectNewest
	// ShedLargest is RejectNewest with demand-aware victims: queue
	// overflow evicts the largest-demand waiter instead of the newest,
	// and when the pool is starved — the queue head cannot get even its
	// floor grant before its deadline — the largest-demand waiter is shed
	// so smaller queries can flow.
	ShedLargest
	// Brownout degrades instead of rejecting where it can: a Hybrid or
	// hybrid-dyn queue head that cannot get its policy grant is admitted
	// at the largest demand/k (k <= 8) grant that fits the free pool,
	// trading the paper's memory ratio for admission. Queue overflow and
	// deadlines behave like RejectNewest.
	Brownout
)

// ShedPolicies lists every shed policy in flag-name order.
var ShedPolicies = []ShedPolicy{NoShed, RejectNewest, ShedLargest, Brownout}

func (p ShedPolicy) String() string {
	switch p {
	case NoShed:
		return "none"
	case RejectNewest:
		return "reject"
	case ShedLargest:
		return "largest"
	case Brownout:
		return "brownout"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy maps a flag value to a ShedPolicy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "none":
		return NoShed, nil
	case "reject":
		return RejectNewest, nil
	case "largest":
		return ShedLargest, nil
	case "brownout":
		return Brownout, nil
	}
	return 0, fmt.Errorf("sched: unknown shed policy %q (want none, reject, largest, or brownout)", s)
}

// Outcome is a query's fate through the workload.
type Outcome int

const (
	// OutcomeCompleted: the query ran to completion.
	OutcomeCompleted Outcome = iota
	// OutcomeShedQueue: rejected at the bounded admission queue.
	OutcomeShedQueue
	// OutcomeShedStarved: shed as the largest-demand waiter while the
	// pool was starved (ShedLargest).
	OutcomeShedStarved
	// OutcomeTimedOutQueued: its deadline expired while it waited.
	OutcomeTimedOutQueued
	// OutcomeCanceled: its deadline expired mid-join; the engine canceled
	// it at the deadline instant and released its grant.
	OutcomeCanceled
	// OutcomeShedBudget: its executor gave up with a retry-budget
	// exhaustion (fault.ErrRetryBudgetExhausted) and the engine shed it
	// instead of failing the workload.
	OutcomeShedBudget
	// OutcomeShedInfeasible: shed at admission because its nominal
	// (stand-alone) response already overruns its remaining deadline
	// budget. Nominal is a hard lower bound on delivered response, so an
	// infeasible admission could only ever waste capacity on a query
	// destined for a deadline cancel.
	OutcomeShedInfeasible
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeShedQueue:
		return "shed:queue"
	case OutcomeShedStarved:
		return "shed:starved"
	case OutcomeTimedOutQueued:
		return "timeout:queued"
	case OutcomeCanceled:
		return "timeout:canceled"
	case OutcomeShedBudget:
		return "shed:budget"
	case OutcomeShedInfeasible:
		return "shed:infeasible"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// shedRec records one shed decision: a query resolved without completing.
type shedRec struct {
	outcome Outcome
	atNs    cost.SimNs
}

// shedQuery records q's fate, bumps the matching counter, and samples the
// metrics registry at the decision instant.
func (e *Engine) shedQuery(q *Query, out Outcome, queueDepth int) {
	e.sheds[q.ID] = &shedRec{outcome: out, atNs: e.now}
	switch out {
	case OutcomeTimedOutQueued, OutcomeCanceled:
		e.mTimeout.Add(1)
	default:
		e.mShed.Add(1)
	}
	e.sampleMetrics(out.String(), queueDepth)
}

// sampleMetrics snapshots the engine's registry as one event row: the
// admission-queue depth gauge at this instant plus the cumulative shed and
// timeout counters.
func (e *Engine) sampleMetrics(event string, queueDepth int) {
	e.mQueueDepth.Set(int64(queueDepth))
	e.events++
	e.metrics.Sample(0, e.events, event, e.now.Nanoseconds())
}

// shedTieBreak orders equal-demand shed victims: a seeded hash of the query
// id, so victim selection is deterministic but not simply "highest id".
func (e *Engine) shedTieBreak(q *Query) uint64 {
	return xrand.Mix64(e.cfg.ShedSeed ^ uint64(q.ID))
}

// largestVictim picks the shed victim from the waiting queue: largest
// demand first, seeded hash then id breaking ties. Returns its index.
func (e *Engine) largestVictim(waitq []*Query) int {
	best := 0
	for i := 1; i < len(waitq); i++ {
		a, b := waitq[i], waitq[best]
		switch {
		case a.DemandBytes != b.DemandBytes:
			if a.DemandBytes > b.DemandBytes {
				best = i
			}
		case e.shedTieBreak(a) != e.shedTieBreak(b):
			if e.shedTieBreak(a) > e.shedTieBreak(b) {
				best = i
			}
		case a.ID > b.ID:
			best = i
		}
	}
	return best
}

// headStarved reports whether the queue head is pool-starved beyond its
// deadline: it cannot get even its floor grant from the free pool now, and
// the projected wait for that floor overruns its deadline. Only then does
// ShedLargest shed — a head that can still make it simply waits.
func (e *Engine) headStarved(head *Query) bool {
	dl, ok := head.deadline()
	if !ok {
		return false
	}
	floor := e.grantFloor(head)
	if e.cfg.Pool.Free() >= floor {
		return false
	}
	return e.now+e.projectedWait(floor) > dl
}

// brownoutGrant finds the degraded grant for a Hybrid/hybrid-dyn queue head
// under Brownout: the largest demand/k (k <= 8, the paper's lowest plotted
// memory ratio) that fits the free pool. ok=false when even demand/8 does
// not fit; degraded=false when the full demand fits (no brownout needed —
// decide() would have taken it).
func (e *Engine) brownoutGrant(q *Query) (grant int64, degraded, ok bool) {
	free := e.cfg.Pool.Free()
	demand := e.clampDemand(q.DemandBytes)
	for k := int64(1); k <= 8; k++ {
		g := (demand + k - 1) / k
		if g < minGrant {
			g = minGrant
		}
		if g <= free {
			return g, k > 1, true
		}
	}
	return 0, false, false
}

// brownoutEligible reports whether q's algorithm tolerates a degraded
// grant: the Hybrid variants degrade gracefully (more buckets, Figures
// 7-9); the others are left to queue.
func brownoutEligible(q *Query) bool {
	return q.Alg.String() == "hybrid" || q.Alg.String() == "hybrid-dyn"
}
