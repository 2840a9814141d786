package gamma

import "fmt"

// MemPool is the cluster-wide join-memory pool: the aggregate hash-table
// memory of the joining processors, treated as a contended resource once
// several queries run at the same time. A single-query run implicitly owns
// the whole pool (its Spec.MemBytes/MemRatio *is* its grant); the workload
// engine in internal/sched makes the grant explicit — every admitted query
// Takes its memory at admission and Releases it at completion, so the
// paper's central knob, the memory-to-inner-relation ratio of Figures 5-9,
// becomes a per-query quantity decided by the admission policy.
//
// The pool is plain bookkeeping with no locking: the engine admits and
// completes queries at simulated-time event boundaries on a single
// goroutine, exactly like MarkDead/ReviveAll mutate the host map only at
// phase barriers.
type MemPool struct {
	total int64
	inUse int64
	peak  int64
	taken int // grants handed out over the pool's lifetime

	// Revocation accounting (the scheduler's revoke-and-re-grant path,
	// docs/SCHEDULER.md "Dynamic Hybrid"). Revoked bytes return to the free
	// pool immediately; a later Regrant hands them back to the victim.
	revokedBytes   int64 // bytes taken back from running queries, cumulative
	regrantedBytes int64 // bytes handed back after a revocation, cumulative
	revokes        int   // individual Revoke calls
}

// NewMemPool creates a pool of the given aggregate size in bytes.
func NewMemPool(total int64) *MemPool {
	if total < 0 {
		total = 0
	}
	return &MemPool{total: total}
}

// Total returns the pool's aggregate size.
func (p *MemPool) Total() int64 { return p.total }

// Free returns the bytes currently not granted.
func (p *MemPool) Free() int64 { return p.total - p.inUse }

// InUse returns the bytes currently granted.
func (p *MemPool) InUse() int64 { return p.inUse }

// Peak returns the high-water mark of granted bytes.
func (p *MemPool) Peak() int64 { return p.peak }

// Grants returns how many grants Take has handed out.
func (p *MemPool) Grants() int { return p.taken }

// Take grants n bytes. The caller must have checked Free; over-committing
// the pool is a scheduler bug, not a runtime condition, so it errors.
func (p *MemPool) Take(n int64) error {
	if n <= 0 {
		return fmt.Errorf("gamma: memory grant must be positive, got %d", n)
	}
	if n > p.Free() {
		return fmt.Errorf("gamma: memory grant %d exceeds free pool %d/%d", n, p.Free(), p.total)
	}
	p.inUse += n
	p.taken++
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	return nil
}

// Release returns a grant to the pool.
func (p *MemPool) Release(n int64) error {
	if n < 0 || n > p.inUse {
		return fmt.Errorf("gamma: releasing %d with only %d in use", n, p.inUse)
	}
	p.inUse -= n
	return nil
}

// Revoke takes n bytes back from a running query's grant, returning them to
// the free pool. The caller is responsible for shrinking the victim's
// recorded grant by the same amount; revoking more than is in use is a
// scheduler bug, exactly like over-releasing.
func (p *MemPool) Revoke(n int64) error {
	if n <= 0 || n > p.inUse {
		return fmt.Errorf("gamma: revoking %d with only %d in use", n, p.inUse)
	}
	p.inUse -= n
	p.revokedBytes += n
	p.revokes++
	return nil
}

// Regrant hands previously revoked capacity back to a victim. It is a Take
// that counts toward the re-grant ledger instead of the admission ledger, so
// Grants() still means "queries admitted".
func (p *MemPool) Regrant(n int64) error {
	if n <= 0 {
		return fmt.Errorf("gamma: re-grant must be positive, got %d", n)
	}
	if n > p.Free() {
		return fmt.Errorf("gamma: re-grant %d exceeds free pool %d/%d", n, p.Free(), p.total)
	}
	p.inUse += n
	p.regrantedBytes += n
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	return nil
}

// Revoked returns the cumulative bytes revoked from running queries.
func (p *MemPool) Revoked() int64 { return p.revokedBytes }

// Regranted returns the cumulative bytes handed back after revocations.
func (p *MemPool) Regranted() int64 { return p.regrantedBytes }

// Revokes returns how many Revoke calls the pool has served.
func (p *MemPool) Revokes() int { return p.revokes }
