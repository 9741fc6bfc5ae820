package core

import (
	"errors"
	"time"

	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/rpcrdma"
	"repro/internal/trace"
)

// RetryPolicy tunes transparent connection recovery (EnableRecovery).
type RetryPolicy struct {
	// MaxReconnects bounds how many reconnect+replay cycles one call may
	// drive before its transport error surfaces to the application.
	MaxReconnects int

	// Backoff is the wait before the first reconnect attempt; it doubles
	// per cycle (exponential backoff, mirroring the transport's per-call
	// retransmission policy one layer down).
	Backoff des.Duration

	// MaxBackoff caps the doubling. With large MaxReconnects budgets —
	// chaos soaks ride out whole server outages — an uncapped exponential
	// would sleep for simulated hours (and eventually overflow).
	MaxBackoff des.Duration
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxReconnects <= 0 {
		r.MaxReconnects = 4
	}
	if r.Backoff <= 0 {
		r.Backoff = 100 * time.Microsecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 100 * time.Millisecond
	}
	return r
}

// recoveringTransport wraps the client's RDMA transport with transparent
// reconnect-and-replay: a call that fails with a transport-level error
// (connection death, exhausted retransmissions) re-establishes the
// connection and replays the request with its original XID, so the
// server's duplicate request cache suppresses re-execution of
// non-idempotent procedures. Callers — the NFS client above — never see
// the failure unless the retry policy is exhausted.
type recoveringTransport struct {
	cl     *Client
	policy RetryPolicy

	// reconnecting coordinates single-flight reconnection: while non-nil, a
	// reconnect is in progress and other failing calls wait on it instead
	// of racing to replace the same connection.
	reconnecting *des.Event

	reconnects int64
	replays    int64
}

var _ oncrpc.Framer = (*recoveringTransport)(nil)

// Room implements oncrpc.Framer for the RDMA transport underneath. A replay
// frames the call again on a fresh connection, and gets its own copy of the
// call for that (oncrpc.Request.Frame).
func (r *recoveringTransport) Room(req *oncrpc.Request) int { return r.cl.RDMA.Room(req) }

// NewRequest implements oncrpc.Framer: the request comes with the call state
// of the RDMA transport underneath. A replay on a fresh connection gets state
// of its own there.
func (r *recoveringTransport) NewRequest() *oncrpc.Request { return r.cl.RDMA.NewRequest() }

// isTransportError reports whether err means the connection (not the call)
// failed: such calls are safe to replay on a fresh connection because the
// server's DRC answers retransmissions of anything that already executed.
func isTransportError(err error) bool {
	return errors.Is(err, rpcrdma.ErrTransport) ||
		errors.Is(err, rpcrdma.ErrClosed) ||
		errors.Is(err, rpcrdma.ErrTimeout)
}

// Roundtrip implements oncrpc.Transport.
func (r *recoveringTransport) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	backoff := r.policy.Backoff
	for attempt := 0; ; attempt++ {
		resp, err := r.cl.RDMA.Roundtrip(p, req)
		if err == nil || !isTransportError(err) {
			return resp, err
		}
		if attempt >= r.policy.MaxReconnects {
			return nil, err
		}
		p.Sleep(backoff)
		backoff *= 2
		if backoff > r.policy.MaxBackoff {
			backoff = r.policy.MaxBackoff
		}
		if rerr := r.ensureConnected(p); rerr != nil {
			// Redial failed (server still down): burn this cycle and keep
			// backing off. The next Roundtrip on the closed transport fails
			// fast with ErrClosed, so the loop costs only the backoff sleeps
			// until either the server returns or the budget runs out.
			continue
		}
		r.replays++
		r.cl.cluster.Totals.Replays++
		if tr := r.cl.cluster.Sim.Tracer(); tr != nil {
			tr.Instant(int64(p.Now()), trace.LayerCore, trace.KindReplay,
				r.cl.Node.Name(), "replay", uint64(req.XID), int64(attempt))
		}
	}
}

// Close implements oncrpc.Transport.
func (r *recoveringTransport) Close() { r.cl.RDMA.Close() }

// ensureConnected replaces a broken connection, single-flight: concurrent
// failing calls wait for the one reconnect instead of each dialing.
func (r *recoveringTransport) ensureConnected(p *des.Proc) error {
	for r.reconnecting != nil {
		r.reconnecting.Wait(p)
	}
	if !r.cl.RDMA.Broken() {
		return nil // someone else already reconnected
	}
	ev := des.NewEvent(r.cl.cluster.Sim)
	r.reconnecting = ev
	start := p.Now()
	err := r.cl.Reconnect(p)
	if tr := r.cl.cluster.Sim.Tracer(); tr != nil {
		errFlag := int64(0)
		if err != nil {
			errFlag = 1
		}
		tr.Span(int64(start), int64(p.Now()), trace.LayerCore, trace.KindReconnect,
			r.cl.Node.Name(), "reconnect", uint64(r.reconnects+1), errFlag)
	}
	r.reconnecting = nil
	ev.Fire(nil)
	if err != nil {
		return err
	}
	r.reconnects++
	r.cl.cluster.Totals.Reconnects++
	return nil
}

// EnableRecovery installs transparent reconnect-and-replay on the client's
// RDMA transport. Call it after the cluster is wired (inside Start) and
// before issuing I/O. The per-call timeout that detects silent failures is
// configured separately, via Profile.RDMAClient.CallTimeout/RetryLimit.
func (c *Client) EnableRecovery(policy RetryPolicy) {
	if c.RDMA == nil {
		panic("core: recovery applies to RDMA transports only")
	}
	r := &recoveringTransport{cl: c, policy: policy.withDefaults()}
	c.recovery = r
	c.Transport = r
	c.NFS.SetTransport(r)
}

// RecoveryStats returns (reconnects, replays) performed by the recovery
// layer, or zeros when EnableRecovery was not called.
func (c *Client) RecoveryStats() (reconnects, replays int64) {
	if c.recovery == nil {
		return 0, 0
	}
	return c.recovery.reconnects, c.recovery.replays
}
