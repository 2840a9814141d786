package core

// runSimple executes the parallel Simple hash-join (Section 3.2): the inner
// relation is staged directly into in-memory hash tables at the join sites;
// memory overflow is cleared to per-site overflow files via the
// histogram/cutoff mechanism, and the overflow partitions are joined
// recursively with a new hash function per level.
func (rc *runCtx) runSimple() error {
	return rc.hashJoinStreams("simple", -1, relSources(rc.spec.R), relSources(rc.spec.S), 0, 0,
		rc.spec.RPred, rc.spec.SPred)
}
