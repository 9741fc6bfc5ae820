package rpcrdma

import (
	"repro/internal/des"
)

// Credit-based flow control. The RPC/RDMA header carries a credit field
// (Figure 2: "Flow Control Field"); with static credits it simply reports
// the configured receive depth. The paper's future-work section proposes
// dynamic credit management to improve multi-client scalability, which
// Config.DynamicCredits enables: the server advertises its *current*
// capacity in every reply — the configured depth minus reply buffers still
// parked awaiting RDMA_DONE — and the client throttles its in-flight calls
// to the latest grant. Under a buffer-pinning attack (§4.1) honest load
// then backs off before the server wedges.

// creditGate bounds in-flight calls by a grant that can change at runtime
// (a plain counting semaphore cannot shrink). Waiters queue in a ring
// buffer so draining the front drops them instead of pinning them in the
// slice's backing array.
type creditGate struct {
	sim         *des.Sim
	granted     int
	outstanding int
	waiters     des.Ring[*creditWait]

	// sum receives every change to granted and outstanding as it happens
	// (see ClientTotals). It is never nil: a gate nobody sums keeps a private
	// one, so the call path adds through the pointer without a test.
	sum *ClientTotals
}

// creditWait is one acquireThen in flight, kept in storage its caller owns.
type creditWait struct {
	g   *creditGate
	fn  func(any)
	arg any
}

func newCreditGate(sim *des.Sim, initial int) *creditGate {
	return &creditGate{sim: sim, granted: initial, sum: &ClientTotals{Granted: int64(initial)}}
}

// ClientTotals are sums over a set of client transports, kept by the
// transports themselves at the statements where the summed values change,
// so whoever owns the set (core.Cluster, for its telemetry probes) reads
// four cells instead of walking the transports. A transport is in exactly
// one set at a time for the credit sums; SumInto moves it. The call counts
// are cumulative and never move (CountInto).
type ClientTotals struct {
	Outstanding int64 // calls holding a credit
	Granted     int64 // flow-control grants
	CallCounts
}

// CallCounts count what happened to calls: timer expiries and XID-stable
// retransmissions (ClientTransport.Timeouts and .Retransmits).
type CallCounts struct {
	Timeouts    int64
	Retransmits int64
}

// SumInto takes the transport's credits out of the totals they have been
// adding to and puts them into sum; from here on their changes land in sum.
// Retiring a transport is SumInto(new(ClientTotals)): calls still unwinding
// on it keep a consistent place to subtract from, and the owner's totals no
// longer see it.
func (t *ClientTransport) SumInto(sum *ClientTotals) {
	g := t.inflight
	g.sum.Outstanding -= int64(g.outstanding)
	g.sum.Granted -= int64(g.granted)
	sum.Outstanding += int64(g.outstanding)
	sum.Granted += int64(g.granted)
	g.sum = sum
}

// CountInto makes the transport add every timeout and retransmission to each
// of cells too, for as long as it lives. Unlike the credit sums the cells do
// not move when the transport is retired: an event is counted once, where and
// when it happens, also on a transport that was already replaced.
func (t *ClientTransport) CountInto(cells ...*CallCounts) { t.counted = cells }

// acquireThen consumes a credit and calls fn(arg), at once when one is
// available, otherwise once a grant or a release lets it — woken where a
// process waiting for a credit would resume, and then checking again, as
// such a process does. w holds the wait until fn is called.
func (g *creditGate) acquireThen(w *creditWait, fn func(any), arg any) {
	*w = creditWait{g: g, fn: fn, arg: arg}
	w.try()
}

func (w *creditWait) try() {
	g := w.g
	if g.outstanding >= g.granted {
		g.waiters.Push(w)
		return
	}
	g.outstanding++
	g.sum.Outstanding++
	fn, arg := w.fn, w.arg
	*w = creditWait{}
	fn(arg)
}

func creditRetry(a any) { a.(*creditWait).try() }

// release returns a credit and wakes waiters up to the grant.
func (g *creditGate) release() {
	g.outstanding--
	g.sum.Outstanding--
	g.wake()
}

// setGranted installs a new grant (minimum 1: the protocol never revokes
// the last credit, or progress would stop). Outstanding calls above a
// shrunken grant drain naturally; only new calls throttle.
func (g *creditGate) setGranted(n int) {
	if n < 1 {
		n = 1
	}
	if n != g.granted {
		g.sum.Granted += int64(n - g.granted)
		g.granted = n
		g.wake()
	}
}

// wake releases as many queued waiters as the grant currently allows; a
// woken waiter re-checks the condition, so extra wakeups are harmless.
func (g *creditGate) wake() {
	free := g.granted - g.outstanding
	for free > 0 && g.waiters.Len() > 0 {
		g.sim.AtArg(g.sim.Now(), creditRetry, g.waiters.Pop())
		free--
	}
}

// Granted returns the current grant (for tests and metrics).
func (g *creditGate) Granted() int { return g.granted }

// Outstanding returns the in-flight call count.
func (g *creditGate) Outstanding() int { return g.outstanding }
