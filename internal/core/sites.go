package core

import "slices"

// intersectSites filters base to the sites also present in allowed,
// preserving base's order. An empty intersection falls back to base: the
// callers use allowed as a *restriction* (a recovery path excluding dead
// sites), and a restriction that names no usable site must not strand the
// query with zero processors. An empty allowed list means "no restriction".
func intersectSites(base, allowed []int) []int {
	if len(allowed) == 0 {
		return base
	}
	var kept []int
	for _, s := range base {
		if slices.Contains(allowed, s) {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return base
	}
	return kept
}

// withoutSite returns sites minus the dead site, preserving order. Both
// recovery rungs — mirrored failover and full restart — shrink the join-site
// list through this one helper.
func withoutSite(sites []int, dead int) []int {
	alive := make([]int, 0, len(sites))
	for _, s := range sites {
		if s != dead {
			alive = append(alive, s)
		}
	}
	return alive
}
