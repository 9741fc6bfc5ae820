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
// buffer so draining the front drops the fired events instead of pinning
// them in the slice's backing array.
type creditGate struct {
	sim         *des.Sim
	granted     int
	outstanding int
	waiters     des.Ring[*des.Event]

	// sum receives every change to granted and outstanding as it happens
	// (see ClientTotals). It is never nil: a gate nobody sums keeps a private
	// one, so the call path adds through the pointer without a test.
	sum *ClientTotals
}

func newCreditGate(sim *des.Sim, initial int) *creditGate {
	return &creditGate{sim: sim, granted: initial, sum: &ClientTotals{Granted: int64(initial)}}
}

// ClientTotals are sums over a set of client transports, kept by the
// transports themselves at the statements where the summed values change,
// so whoever owns the set (core.Cluster, for its telemetry probes) reads
// four cells instead of walking the transports. A transport is in exactly
// one set at a time; SumInto moves it.
type ClientTotals struct {
	Outstanding int64 // calls holding a credit
	Granted     int64 // flow-control grants
	Timeouts    int64 // ClientTransport.Timeouts
	Retransmits int64 // ClientTransport.Retransmits
}

// SumInto takes the transport's contribution out of the totals it has been
// adding to and puts it into sum; from here on its changes land in sum.
// Retiring a transport is SumInto(new(ClientTotals)): calls still unwinding
// on it keep a consistent place to subtract from, and the owner's totals no
// longer see it.
func (t *ClientTransport) SumInto(sum *ClientTotals) {
	g := t.inflight
	mine := ClientTotals{int64(g.outstanding), int64(g.granted), t.Timeouts, t.Retransmits}
	g.sum.add(-1, mine)
	sum.add(+1, mine)
	g.sum = sum
}

func (c *ClientTotals) add(sign int64, d ClientTotals) {
	c.Outstanding += sign * d.Outstanding
	c.Granted += sign * d.Granted
	c.Timeouts += sign * d.Timeouts
	c.Retransmits += sign * d.Retransmits
}

// acquire blocks until a credit is available, then consumes it.
func (g *creditGate) acquire(p *des.Proc) {
	for g.outstanding >= g.granted {
		ev := des.NewEvent(g.sim)
		g.waiters.Push(ev)
		ev.Wait(p)
	}
	g.outstanding++
	g.sum.Outstanding++
}

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
		g.waiters.Pop().Fire(nil)
		free--
	}
}

// Granted returns the current grant (for tests and metrics).
func (g *creditGate) Granted() int { return g.granted }

// Outstanding returns the in-flight call count.
func (g *creditGate) Outstanding() int { return g.outstanding }
