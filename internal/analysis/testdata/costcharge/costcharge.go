// Package costcharge seeds violations of the costcharge analyzer against
// the real netsim/gamma/cost APIs.
package costcharge

import (
	"gammajoin/internal/cost"
	"gammajoin/internal/gamma"
	"gammajoin/internal/netsim"
	"gammajoin/internal/tuple"
)

// unpricedSend ships tuples without charging any per-tuple work.
func unpricedSend(snd *netsim.Sender, ts []tuple.Tuple) {
	for i := range ts {
		snd.Send(0, 0, &ts[i], 0) // want `netsim send without a cost.Model charge`
	}
}

// pricedSend charges the hash cost before routing, as the join phases do.
func pricedSend(a *cost.Acct, m *cost.Model, snd *netsim.Sender, ts []tuple.Tuple) {
	for i := range ts {
		a.AddCPU(m.Hash)
		snd.Send(0, 0, &ts[i], 0)
	}
}

func pricedHelper(a *cost.Acct, m *cost.Model) { a.AddCPU(m.ReadTuple) }

// delegatedSend passes its account to a priced helper; pairing is satisfied
// by delegation.
func delegatedSend(a *cost.Acct, m *cost.Model, snd *netsim.Sender, t tuple.Tuple) {
	pricedHelper(a, m)
	snd.SendJoinedTo(snd.Stream(0, 0), &t, &t)
}

// unpricedResult ships a join result without charging the result cost.
func unpricedResult(snd *netsim.Sender, inner, outer *tuple.Tuple) {
	snd.SendJoinedTo(snd.Stream(0, 0), inner, outer) // want `netsim send without a cost.Model charge`
}

// unpricedHandleSend ships tuples through a stream handle without charging
// any per-tuple work: the handle path is priced like Send.
func unpricedHandleSend(snd *netsim.Sender, ts []tuple.Tuple) {
	st := snd.Stream(1, 0)
	for i := range ts {
		snd.SendTo(st, &ts[i], 0) // want `netsim send without a cost.Model charge`
	}
}

// pricedHandleSend resolves its handles once into the sender's cache and
// charges the hash cost per tuple, as the join scans do.
func pricedHandleSend(a *cost.Acct, m *cost.Model, snd *netsim.Sender, ts []tuple.Tuple) {
	cache := snd.StreamCache(2)
	for i := range ts {
		a.AddCPU(m.Hash)
		if cache[i%2] == nil {
			cache[i%2] = snd.Stream(i%2, 0)
		}
		snd.SendTo(cache[i%2], &ts[i], 0)
	}
}

// pricedHandleResult charges the result cost before storing the match.
func pricedHandleResult(a *cost.Acct, m *cost.Model, snd *netsim.Sender, inner, outer *tuple.Tuple) {
	a.AddCPU(m.Result)
	snd.SendJoinedTo(snd.Stream(0, 0), inner, outer)
}

// directDeliver bypasses the sender entirely.
func directDeliver(ex *gamma.Exchange, run []*netsim.Batch) {
	ex.Deliver(0, run) // want `direct Exchange.Deliver call bypasses`
}

// rawChanSend pushes a batch onto a channel with no accounting.
func rawChanSend(ch chan *netsim.Batch, b *netsim.Batch) {
	ch <- b // want `netsim.Batch sent on a raw channel`
}

// rawChanSendRun pushes a whole transport run onto a channel with no
// accounting — the batched path must not be a loophole.
func rawChanSendRun(ch chan []*netsim.Batch, run []*netsim.Batch) {
	ch <- run // want `netsim.Batch sent on a raw channel`
}

// handBatch fabricates a packet without paying tuple copy costs.
func handBatch(ts []tuple.Tuple) *netsim.Batch {
	return &netsim.Batch{Src: 0, Dst: 1, Batch: tuple.Batch{Tuples: ts}} // want `netsim.Batch built by hand`
}

// drainNoRecv consumes batches without charging receive-side protocol cost.
func drainNoRecv(ch chan *netsim.Batch) int {
	n := 0
	for b := range ch { // want `without Network.Recv`
		n += b.Len()
	}
	return n
}

// drainRunsNoRecv consumes batched-transport runs without charging
// receive-side protocol cost.
func drainRunsNoRecv(ch chan []*netsim.Batch) int {
	n := 0
	for run := range ch { // want `without Network.Recv`
		for _, b := range run {
			n += b.Len()
		}
	}
	return n
}

// drainWithRecv is the sanctioned single-batch consumer shape.
func drainWithRecv(net *netsim.Network, a *cost.Acct, ch chan *netsim.Batch) int {
	n := 0
	for b := range ch {
		net.Recv(a, b)
		n += b.Len()
	}
	return n
}

// drainRunsWithRecv is the sanctioned batched consumer shape (core's
// drain): every batch in every run pays Recv.
func drainRunsWithRecv(net *netsim.Network, a *cost.Acct, ch chan []*netsim.Batch) int {
	n := 0
	for run := range ch {
		for _, b := range run {
			net.Recv(a, b)
			n += b.Len()
		}
	}
	return n
}
