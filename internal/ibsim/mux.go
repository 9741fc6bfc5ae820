package ibsim

import (
	"fmt"

	"repro/internal/des"
)

// Multiplexed (shared) queue pairs.
//
// A dedicated RC connection per client is what stops RDMA servers from
// scaling: QP context, receive rings and CQ slots all grow O(connections)
// (the RDMAvisor observation). The fix, modelled here after dynamically
// connected transport (DCT), is to let many lightweight client endpoints
// share one server-side QP. The shared QP owns all the heavy state — send
// engine, ORD slots, SRQ attachment, CQs — while each endpoint costs only a
// slot-table entry. Work requests carry a stream id that selects the target
// endpoint on the way out and demultiplexes arrivals on the way in, so a
// consumer of the shared CQ routes by CQE.Stream instead of CQE.QP.
//
// Failure scoping follows the transport split: an endpoint dying frees its
// slot and surfaces as an endpoint-scoped error CQE (Stream != 0) on the
// shared QP's receive CQ; the shared QP dying takes every attached endpoint
// with it (Stream == 0 error CQE) but nothing else.

// muxSlot is one endpoint attachment on a shared QP. The generation tag
// makes recycled slots safe: stream ids embed the generation, so traffic
// addressed to a detached endpoint resolves to nothing (and flushes) instead
// of landing on the slot's next occupant.
type muxSlot struct {
	ep  *QP
	gen uint16
}

// Modelled control-state footprints, used by the receive-side memory
// accounting (rpcrdma.ServerTransport.RecvStateBytes). Order-of-magnitude
// honest for the paper era: a QP costs its HCA context plus host-side queue
// structures; a mux endpoint costs one slot entry (pointer, stream id,
// generation, credit sub-account).
const (
	QPContextBytes    = 4096
	EndpointSlotBytes = 96
)

const maxMuxSlots = 0xFFFE // slot index + 1 must fit in 16 stream bits

// streamID encodes a slot index and generation into a wire stream id.
// Stream 0 is reserved to mean "not multiplexed" / "QP scope".
func streamID(idx int, gen uint16) uint32 {
	return uint32(idx+1) | uint32(gen)<<16
}

// NewMuxQP creates a shared (multiplexed) queue pair on the node. It has no
// single peer; endpoints attach with AttachEndpoint and sends address them
// by SendWQE.Stream. ORD slots are provisioned once for the whole QP and
// contended by every endpoint, as a DCT responder context would be.
func (f *Fabric) NewMuxQP(n *Node, cfg QPConfig) *QP {
	q := newQP(n, cfg, f.nextQPN())
	q.mux = true
	q.ord = des.NewResource(f.Sim, fmt.Sprintf("%s/qp%d/ord", n.name, q.qpn), n.cfg.MaxORD)
	q.start()
	f.Counters.Inc("mux.qp")
	return q
}

// AttachEndpoint connects a lightweight endpoint on the client node to a
// shared QP, returning the endpoint's own (full) QP. The client side keeps
// per-connection state as usual — that is the client's own business — while
// the shared side spends only a slot entry. The endpoint's stream id is
// stamped on everything it posts, and everything the shared QP sends toward
// it must carry the same stream (rpcrdma stamps it per logical connection).
func (f *Fabric) AttachEndpoint(client *Node, mqp *QP, cfg QPConfig) (*QP, error) {
	if !mqp.mux {
		panic("ibsim: AttachEndpoint on a non-mux QP")
	}
	if mqp.closed || mqp.errSt != nil {
		return nil, fmt.Errorf("%w: shared qp is down", ErrQPError)
	}
	var idx int
	if n := len(mqp.freeSlots); n > 0 {
		idx = mqp.freeSlots[n-1]
		mqp.freeSlots = mqp.freeSlots[:n-1]
	} else {
		if len(mqp.slots) >= maxMuxSlots {
			return nil, fmt.Errorf("%w: mux slot table full", ErrQPError)
		}
		idx = len(mqp.slots)
		mqp.slots = append(mqp.slots, muxSlot{})
	}
	ep := newQP(client, cfg, f.nextQPN())
	ep.peer = mqp
	ep.stream = streamID(idx, mqp.slots[idx].gen)
	ord := min(client.cfg.MaxORD, mqp.node.cfg.MaxORD)
	ep.ord = des.NewResource(f.Sim, fmt.Sprintf("%s/qp%d/ord", client.name, ep.qpn), ord)
	mqp.slots[idx].ep = ep
	mqp.liveEps++
	ep.start()
	// Endpoints join the fault-injection registry like any connection, so
	// link flaps by node pair keep finding them; the shared QP itself is not
	// registered (it has no single peer node).
	f.conns = append(f.conns, ep)
	f.Counters.Inc("mux.attach")
	return ep, nil
}

// peerFor resolves the effective remote endpoint of a work request: the
// fixed peer on an ordinary connection, or the slot-table entry addressed by
// the stream id on a mux QP. Nil means the stream is stale (endpoint
// detached, or its slot was recycled under a newer generation); callers
// flush the request. This is the demultiplex hot path — it must not
// allocate.
func (q *QP) peerFor(stream uint32) *QP {
	if !q.mux {
		return q.peer
	}
	idx := int(stream&0xFFFF) - 1
	if idx < 0 || idx >= len(q.slots) {
		return nil
	}
	sl := &q.slots[idx]
	if sl.ep == nil || sl.gen != uint16(stream>>16) {
		return nil
	}
	return sl.ep
}

// endpointDead detaches a dying endpoint from its shared QP: the slot is
// freed for reuse under a bumped generation, and — while the shared QP
// itself is healthy — an endpoint-scoped error CQE (Stream set) tells the
// shared CQ's consumer that exactly this endpoint is gone. Idempotent.
func (q *QP) endpointDead(ep *QP) {
	idx := int(ep.stream&0xFFFF) - 1
	if idx < 0 || idx >= len(q.slots) || q.slots[idx].ep != ep {
		return // already detached
	}
	q.slots[idx].ep = nil
	q.slots[idx].gen++
	q.freeSlots = append(q.freeSlots, idx)
	q.liveEps--
	q.node.fab.Counters.Inc("mux.detach")
	if q.errSt == nil && !q.closed {
		q.RecvCQ.post(&CQE{
			Op: OpRecv, QP: q, Stream: ep.stream,
			Err: fmt.Errorf("%w: endpoint detached", ErrQPError),
		})
	}
}

// TerminateEndpoint moves exactly one attached endpoint of a mux QP into the
// error state, leaving the shared QP — and every sibling endpoint — healthy.
// This is the server-initiated quarantine primitive: terminating a
// misbehaving client must not take the shard's whole population down the way
// Terminate on the shared QP would. Returns false when the stream is stale
// (endpoint already gone), which makes repeated quarantine calls idempotent.
func (q *QP) TerminateEndpoint(stream uint32, err error) bool {
	if !q.mux {
		panic("ibsim: TerminateEndpoint on a non-mux QP")
	}
	ep := q.peerFor(stream)
	if ep == nil {
		return false
	}
	if err == nil {
		err = ErrQPError
	}
	ep.setError(err) // routes through endpointDead: slot freed, scoped CQE
	return true
}

// IsMux reports whether this is a shared (multiplexed) QP.
func (q *QP) IsMux() bool { return q.mux }

// Stream returns the endpoint's stream id on its shared QP (0 on ordinary
// connections and on the mux QP itself).
func (q *QP) Stream() uint32 { return q.stream }

// Endpoints returns the number of live endpoints attached to a mux QP.
func (q *QP) Endpoints() int { return q.liveEps }

// SlotTableSize returns the high-water slot count of a mux QP (live plus
// free-for-reuse slots). A stable value across attach/detach churn is the
// no-leak signal.
func (q *QP) SlotTableSize() int { return len(q.slots) }

// RecvStateBytes models the receive-side control memory this QP pins on its
// node: the QP context plus private posted receive buffers plus (mux side)
// the endpoint slot table. SRQ-pooled buffers are accounted on the SRQ.
func (q *QP) RecvStateBytes() int64 {
	return QPContextBytes + q.rqBytes + int64(q.liveEps)*EndpointSlotBytes
}
