package core

import (
	"fmt"

	"repro/internal/des"
)

// Reconnect replaces a failed RDMA connection with a fresh queue pair and
// client transport, re-attaching it to the server. The new transport is
// built by the same constructor as initial wiring (newClientTransport), so
// it inherits the cluster's design, profile, and timeout policy. The NFS
// client keeps its XID stream across the swap, so the server's duplicate
// request cache stays coherent: retried non-idempotent calls replay their
// cached replies instead of re-executing.
//
// In-flight calls on the old connection have already failed back to their
// callers with transport errors. With recovery enabled (EnableRecovery)
// the recovering transport replays them transparently after this
// reconnect; without it the caller retries by hand. Either way the
// retransmission carries the original XID, which is what makes retrying
// non-idempotent procedures safe against the DRC.
func (c *Client) Reconnect(p *des.Proc) error {
	if c.RDMA == nil {
		return fmt.Errorf("core: reconnect applies to RDMA transports only")
	}
	c.RDMA.Close()
	nt, err := connectRDMA(p, c)
	if err != nil {
		// Dial window exhausted — e.g. the server is crashed for longer than
		// the whole redial budget. The old transport stays installed (closed,
		// so Broken() keeps reporting true) and the caller decides whether to
		// retry the reconnect later.
		return err
	}
	c.install(nt)
	if c.recovery == nil {
		// No recovery wrapper: callers talk to the raw transport, so swap
		// it in directly. With recovery enabled the wrapper stays installed
		// and reads c.RDMA on every call.
		c.Transport = c.RDMA
		c.NFS.SetTransport(c.RDMA)
	}
	return nil
}
