package main

import (
	"fmt"
	"time"

	"gammajoin/internal/core"
	"gammajoin/internal/tuple"
)

// oracle is the expected result of joining a Wisconsin relation with its
// Bprime subset on unique1. Every Bprime tuple is a copy of its one outer
// match, so the result holds exactly one pair (b, b) per Bprime tuple b and
// the expected checksum is computed from the generated tuples alone, without
// the engine.
type oracle struct {
	count int64
	sum   uint64
}

func oracleFor(bprime []tuple.Tuple) oracle {
	o := oracle{count: int64(len(bprime))}
	for i := range bprime {
		o.sum += tuple.PairChecksum(&bprime[i], &bprime[i])
	}
	return o
}

// check reports how rep disagrees with the oracle, or nil.
func (o oracle) check(rep *core.Report) error {
	if rep.ResultCount != o.count {
		return fmt.Errorf("result count %d, want %d", rep.ResultCount, o.count)
	}
	if rep.ResultSum != o.sum {
		return fmt.Errorf("result checksum %#x, want %#x", rep.ResultSum, o.sum)
	}
	return nil
}

// verifier checks each finished join and remembers every point's simulated
// response: a point run again in a later pass on identical inputs must
// report the same response, since simulated time is deterministic.
type verifier struct {
	responses map[string]time.Duration
}

func newVerifier() *verifier { return &verifier{responses: make(map[string]time.Duration)} }

// verify reports why the join identified by key failed, or nil.
func (v *verifier) verify(key string, want oracle, rep *core.Report, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("%s: %w", key, runErr)
	}
	if err := want.check(rep); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if prev, ok := v.responses[key]; ok && prev != rep.Response {
		return fmt.Errorf("%s: simulated response %v, an earlier pass gave %v", key, rep.Response, prev)
	}
	v.responses[key] = rep.Response
	return nil
}
