package ibsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/trace"
)

// Opcode identifies a work request type.
type Opcode int

// Work request opcodes.
const (
	OpSend Opcode = iota
	OpWrite
	OpRead
	OpRecv
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "RDMA_WRITE"
	case OpRead:
		return "RDMA_READ"
	case OpRecv:
		return "RECV"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// LocalSeg is one entry of a local gather/scatter list.
type LocalSeg struct {
	Buf *Buffer
	Off int
	Len int
}

// SendWQE is a work request posted to a send queue. From PostSend to its
// completion it belongs to the fabric, which keeps the request's progress in
// it: do not change it meanwhile; posting it again panics. A request the
// caller built can be posted again once it has completed. One from QP.GetWQE
// whose completion nobody can observe (not Signaled, no Done) goes back to
// the fabric when it completes, and the caller must drop it at PostSend.
type SendWQE struct {
	WRID uint64
	Op   Opcode

	// Payload carries the wire bytes of an RDMA Send (always materialized:
	// sends are the protocol's control messages).
	Payload []byte

	// Local is the gather (Write/Read) list for memory primitives; segment
	// lengths define the transfer size. SetLocal makes it one segment held in
	// the request itself.
	Local []LocalSeg

	// Remote addresses the peer memory for Write/Read.
	RemoteKey  uint32
	RemoteAddr uint64

	// Signaled requests a completion on the send CQ.
	Signaled bool

	// Done, when non-nil, is fired with the *CQE regardless of Signaled;
	// protocol engines use it to wait for one specific WR without draining
	// the CQ.
	Done *des.Event

	// Stream addresses one logical endpoint of a multiplexed (shared) QP:
	// on a mux QP it selects which attached endpoint the request targets,
	// and the receive CQE at the far side carries it for demultiplexing.
	// Zero on ordinary point-to-point connections. Endpoint-side QPs stamp
	// their own stream automatically at PostSend.
	Stream uint32

	// attempt counts the RNR retries of a Send so far.
	attempt int32

	// seq is the fabric-wide trace id assigned at PostSend while tracing;
	// zero means the request predates the tracer (or tracing is off).
	seq uint64

	// The HCA works on a request in steps, each a callback on the scheduler
	// loop (see QP.next), and up to ORD Reads of one QP are between steps at
	// once: what a step leaves for the next one lives in the request, so
	// scheduling a step allocates nothing.
	qp       *QP            // the send queue it was posted to
	from, to *Node          // ends of the wire transfer under way
	hold     des.Duration   // how long that transfer occupies both ports
	then     func(*SendWQE) // the step after it
	t0       des.Time       // when the ORD wait or the transfer being traced began
	mr       *MR            // Read: the responder's region, checked when the request arrived

	// What has the request's lifetime lives in it: SetLocal's segment, the
	// completion handed to Done and the send CQ, and where the request is.
	one    [1]LocalSeg
	cqe    CQE
	state  wqeState
	pooled bool // came from GetWQE, so it may go back there
}

// wqeState is where a work request is between GetWQE or its construction,
// PostSend, its completion and the fabric's free list.
type wqeState uint8

const (
	wqeIdle wqeState = iota // the caller's, to fill in and post
	wqeInFlight
	wqeFree
)

func (s wqeState) String() string { return [...]string{"idle", "in flight", "on the free list"}[s] }

// SetLocal makes the gather list the single segment [off, off+n) of buf.
func (w *SendWQE) SetLocal(buf *Buffer, off, n int) {
	w.one[0] = LocalSeg{Buf: buf, Off: off, Len: n}
	w.Local = w.one[:]
}

// Size returns the wire size of the request's data.
func (w *SendWQE) Size() int {
	if w.Op == OpSend {
		return len(w.Payload)
	}
	n := 0
	for _, s := range w.Local {
		n += s.Len
	}
	return n
}

// RecvWQE is a posted receive buffer.
type RecvWQE struct {
	WRID uint64
	Cap  int // receive buffer capacity; larger sends fail
}

// CQE is a completion queue entry.
type CQE struct {
	WRID    uint64
	Op      Opcode
	Err     error // nil on success
	Bytes   int
	Payload []byte // received Send payload (OpRecv only)
	QP      *QP

	// Stream identifies the logical endpoint on a multiplexed QP. On a
	// shared CQ the consumer demultiplexes by Stream instead of by QP; an
	// error CQE with Stream != 0 is endpoint-scoped (only that endpoint
	// died), while Stream == 0 on a mux QP means the shared QP itself is
	// gone.
	Stream uint32

	// SrcStream is the authenticated source of a received Send on a shared
	// QP: the sending endpoint's own slot id, stamped by the fabric at
	// delivery, never by the sender's software. Stream above is the
	// sender's *claim* (SendWQE.Stream, attacker-controlled); a mismatch
	// between the two is a spoofed message. Zero for traffic that did not
	// originate on a mux endpoint.
	SrcStream uint32

	seq      uint64   // trace id, zero when tracing is off
	postedAt des.Time // post time, for CQ-delivery latency
	pooled   bool     // a receive completion from its CQ's free list, which takes it back
}

// CQ is a completion queue with one consumer, a process (Wait) or a callback
// (WaitThen). Waiting on an empty CQ and being woken by a new completion
// costs the node one interrupt (event-driven mode); finding a completion
// already queued is a poll and costs nothing — this is how the Read-Write
// design's interrupt elimination becomes visible in CPU numbers.
type CQ struct {
	node   *Node
	q      *des.Queue
	track  string
	closed bool

	// Receive completions are recycled: held is the one the consumer was
	// handed last, free those it has handed back by asking for the next.
	held *CQE
	free des.FreeList[CQE]

	// A consumer waiting with WaitThen: its callback, and the completion
	// taken at its wake-up while the interrupt is charged.
	thenFn  func(any, *CQE)
	thenArg any
	woken   *CQE
	intr    cpu.Charge
}

// NewCQ creates a completion queue on the node.
func NewCQ(n *Node, name string) *CQ {
	return &CQ{node: n, q: des.NewQueue(n.fab.Sim, name), track: name}
}

// Close destroys the completion queue: blocked waiters drain what is already
// queued and then see nil, and completions posted after the close are dropped
// on the floor — exactly what destroying a CQ does to flush CQEs of dying
// QPs on real hardware. Used by the server crash path, where in-flight work
// keeps flushing at later virtual instants than the crash itself.
func (cq *CQ) Close() {
	if cq.closed {
		return
	}
	cq.closed = true
	cq.q.Close()
}

func (cq *CQ) post(c *CQE) {
	if cq.closed {
		cq.node.fab.hot.cqeDropped.Inc()
		return
	}
	fab := cq.node.fab
	if tr := fab.Sim.Tracer(); tr != nil {
		fab.cqeSeq++
		c.seq = fab.cqeSeq
		c.postedAt = fab.Sim.Now()
		tr.Begin(int64(c.postedAt), trace.LayerIbsim, trace.KindCQE, cq.track, c.Op.String(), c.seq, int64(c.Bytes))
	}
	cq.q.Put(c)
}

// consumed closes a completion's trace interval when software picks it up
// and feeds the CQ-delivery latency histogram.
func (cq *CQ) consumed(c *CQE) {
	if c.seq == 0 {
		return
	}
	if tr := cq.node.fab.Sim.Tracer(); tr != nil {
		now := cq.node.fab.Sim.Now()
		tr.End(int64(now), trace.LayerIbsim, trace.KindCQE, cq.track, c.Op.String(), c.seq, 0)
		tr.Observe("cq.deliver", (now - c.postedAt).Micros())
	}
}

// Wait blocks until a completion is available and returns it. If the caller
// had to block, the wake-up is charged as a hardware interrupt.
//
// The completion is valid until the next Wait or Poll on this CQ, which takes
// a receive completion back and zeroes it: a CQ has one consumer, and what it
// keeps of a completion (the Payload slice, say) it copies out first.
func (cq *CQ) Wait(p *des.Proc) *CQE {
	cq.release()
	blocked := cq.q.Len() == 0
	v, ok := cq.q.Get(p)
	if !ok {
		return nil
	}
	if blocked {
		cq.node.CPU.Interrupt(p)
	}
	return cq.hand(v.(*CQE))
}

// WaitThen is Wait for a consumer that runs on the scheduler loop: fn(arg, c)
// runs once with the next completion — at once if one is queued, otherwise
// when one arrives, after the interrupt that wake-up costs is charged, at the
// instants a process blocked in Wait would resume and return. c is nil once
// the CQ is closed and drained. The completion is valid like Wait's. A
// consumer that takes what is queued with Poll before it waits again is
// woken, and charged, exactly as a Wait loop is.
func (cq *CQ) WaitThen(fn func(arg any, c *CQE), arg any) {
	cq.release()
	if v, ok := cq.q.TryGet(); ok {
		fn(arg, cq.hand(v.(*CQE)))
		return
	}
	cq.thenFn, cq.thenArg = fn, arg
	cq.q.WaitThen(cqWoken, cq) // at once if closed
}

// cqWoken takes the completion that woke a WaitThen consumer and charges the
// interrupt, as Wait does once its process resumes.
func cqWoken(a any) {
	cq := a.(*CQ)
	v, ok := cq.q.TryGet()
	if !ok {
		cq.then(nil) // closed
		return
	}
	cq.woken = v.(*CQE)
	cq.node.CPU.InterruptThen(&cq.intr, cqInterrupted, cq)
}

func cqInterrupted(a any) {
	cq := a.(*CQ)
	c := cq.woken
	cq.woken = nil
	cq.then(cq.hand(c))
}

// then hands c to the waiting consumer, disarming it first so that it may
// wait again from its callback.
func (cq *CQ) then(c *CQE) {
	fn, arg := cq.thenFn, cq.thenArg
	cq.thenFn, cq.thenArg = nil, nil
	fn(arg, c)
}

// Poll returns a completion without blocking, valid like Wait's until the
// next Wait or Poll on this CQ.
func (cq *CQ) Poll() (*CQE, bool) {
	cq.release()
	v, ok := cq.q.TryGet()
	if !ok {
		return nil, false
	}
	return cq.hand(v.(*CQE)), true
}

// release takes back the completion handed out last: zeroed, so that it pins
// no payload or QP while it waits on the free list.
func (cq *CQ) release() {
	if c := cq.held; c != nil {
		*c = CQE{}
		cq.free.Put(c)
		cq.held = nil
	}
}

// hand gives c to the consumer, remembering it if it is the CQ's to reuse.
func (cq *CQ) hand(c *CQE) *CQE {
	cq.consumed(c)
	if guardSend != nil {
		guardSend(nil, nil, c)
	}
	if c.pooled {
		cq.held = c
	}
	return c
}

// Len returns the number of queued completions.
func (cq *CQ) Len() int { return cq.q.Len() }

// FreeCQEs returns the length of the CQ's free list: at most as many receive
// completions as were ever queued or held at once.
func (cq *CQ) FreeCQEs() int { return len(cq.free) }

// QPConfig tunes a connection.
type QPConfig struct {
	// RNRRetryDelay is the wait before redelivering a send that found no
	// posted receive; RNRRetryLimit bounds the attempts.
	RNRRetryDelay des.Duration
	RNRRetryLimit int
}

func (c *QPConfig) defaults() {
	if c.RNRRetryDelay <= 0 {
		c.RNRRetryDelay = 100 * time.Microsecond
	}
	if c.RNRRetryLimit <= 0 {
		c.RNRRetryLimit = 7
	}
}

const readRequestWireSize = 16 // RDMA Read request packet (header only)

// QP is one endpoint of a reliable connection.
type QP struct {
	node  *Node
	cfg   QPConfig
	qpn   int
	peer  *QP
	track string // trace row: "<node>/qp<N>"

	sq      des.Ring[*SendWQE]
	busy    bool // the send engine is working on a request, or about to look for one
	rq      des.Ring[RecvWQE]
	rqBytes int64 // receive capacity posted in rq
	srq     *SRQ  // when attached, receives draw from the shared pool, not rq
	SendCQ  *CQ
	RecvCQ  *CQ

	ord    *des.Resource // outstanding RDMA Read slots (requester side)
	errSt  error         // non-nil once in error state
	closed bool

	// Multiplexed (shared) connection state — see mux.go. A mux QP fans out
	// to many lightweight endpoints through a slot table; an endpoint QP
	// records the stream id of its slot on the peer mux QP.
	mux       bool
	stream    uint32    // endpoint side: slot id on the peer mux QP
	slots     []muxSlot // mux side: attached endpoints by slot index
	freeSlots []int     // mux side: reusable slot indices (LIFO)
	liveEps   int       // mux side: attached, not-yet-dead endpoints
}

func newQP(n *Node, cfg QPConfig, qpn int) *QP {
	cfg.defaults()
	qp := &QP{
		node:  n,
		cfg:   cfg,
		qpn:   qpn,
		track: fmt.Sprintf("%s/qp%d", n.name, qpn),
	}
	qp.SendCQ = NewCQ(n, fmt.Sprintf("%s/qp%d/scq", n.name, qpn))
	qp.RecvCQ = NewCQ(n, fmt.Sprintf("%s/qp%d/rcq", n.name, qpn))
	return qp
}

// Node returns the node owning this endpoint.
func (q *QP) Node() *Node { return q.node }

// Peer returns the remote endpoint.
func (q *QP) Peer() *QP { return q.peer }

// QPN returns the queue pair number.
func (q *QP) QPN() int { return q.qpn }

// MaxORD returns the negotiated outstanding-RDMA-Read limit.
func (q *QP) MaxORD() int { return q.ord.Capacity() }

// Err returns the error that moved the QP to the error state, or nil.
func (q *QP) Err() error { return q.errSt }

// setError transitions the QP (and its peer) to the error state and
// flushes both completion queues: consumers blocked on the RecvCQ or the
// SendCQ get an error completion, as flushed WRs do on real hardware, so
// protocol engines on both ends learn of the failure instead of waiting
// forever. Work already launched onto the wire checks the error state again
// at delivery time, so in-flight WQEs flush too rather than completing as
// if the connection were still healthy.
func (q *QP) setError(err error) {
	if q.errSt == nil {
		q.errSt = err
		q.node.fab.Counters.Inc("qp.error")
		if tr := q.node.fab.Sim.Tracer(); tr != nil {
			tr.Instant(int64(q.node.fab.Sim.Now()), trace.LayerIbsim, trace.KindQPError, q.track, "qp-error", uint64(q.qpn), 0)
		}
		flushed := fmt.Errorf("%w: flushed", err)
		q.RecvCQ.post(&CQE{Op: OpRecv, Err: flushed, QP: q})
		q.SendCQ.post(&CQE{Op: OpSend, Err: flushed, QP: q})
	}
	switch {
	case q.mux:
		// A shared QP dying takes every attached endpoint with it, in slot
		// order for determinism. Each endpoint's teardown frees its slot via
		// endpointDead (which no-ops the per-endpoint CQE once the shared QP
		// itself is in error — the QP-scope flush CQE already covers them).
		for i := range q.slots {
			if ep := q.slots[i].ep; ep != nil && ep.errSt == nil {
				ep.setError(fmt.Errorf("%w (shared qp: %w)", ErrQPError, err))
			}
		}
	case q.peer != nil && q.peer.mux:
		// Endpoint death stays endpoint-scoped: the shared QP frees the slot
		// and posts an endpoint-scoped error CQE instead of going down.
		q.peer.endpointDead(q)
	case q.peer != nil && q.peer.errSt == nil:
		// Double-wrap so the peer can still classify the root cause (e.g.
		// errors.Is(err, ErrInjected)) while seeing it arrived via the peer.
		q.peer.setError(fmt.Errorf("%w (peer: %w)", ErrQPError, err))
	}
}

// Terminate moves the endpoint (and, via propagation, its peer) to the
// error state with the given protocol-level cause — e.g. a server rejecting
// a connection at admission. Unlike InjectError it preserves err's chain
// unwrapped, so both ends can classify the cause with errors.Is.
func (q *QP) Terminate(err error) {
	if err == nil {
		err = ErrQPError
	}
	q.setError(err)
}

// InjectError forces the connection into the error state at the current
// virtual instant — the fault-injection entry point. In-flight WQEs flush
// with errors and both ends' CQs observe the death (see setError). The
// error surfaced through CQEs wraps ErrInjected unless err already carries
// a fabric sentinel.
func (q *QP) InjectError(err error) {
	if err == nil {
		err = ErrInjected
	} else if !errors.Is(err, ErrInjected) {
		err = fmt.Errorf("%w: %v", ErrInjected, err)
	}
	q.node.fab.Counters.Inc("fault.injected")
	q.setError(err)
}

// PostRecv posts a receive buffer of the given capacity. A QP attached to
// an SRQ has no private receive queue; receives must be posted to the SRQ.
func (q *QP) PostRecv(wrid uint64, capacity int) {
	if q.srq != nil {
		panic("ibsim: PostRecv on an SRQ-attached QP")
	}
	q.rq.Push(RecvWQE{WRID: wrid, Cap: capacity})
	q.rqBytes += int64(capacity)
}

// PostedRecvs returns the current receive queue depth (0 when the QP draws
// from an SRQ).
func (q *QP) PostedRecvs() int { return q.rq.Len() }

// AttachSRQ switches the endpoint's receive side to the shared receive
// queue: arriving sends consume pooled WQEs instead of the private ring.
// Must be attached before any private receives are posted.
func (q *QP) AttachSRQ(s *SRQ) {
	if q.rq.Len() > 0 {
		panic("ibsim: AttachSRQ after PostRecv")
	}
	q.srq = s
}

// SRQ returns the attached shared receive queue, or nil.
func (q *QP) SRQ() *SRQ { return q.srq }

// SetRecvCQ redirects receive completions to cq (a shared per-shard CQ, in
// the scale-out server). Call before any traffic arrives; CQEs carry their
// QP, so consumers of a shared CQ demultiplex by CQE.QP.
func (q *QP) SetRecvCQ(cq *CQ) { q.RecvCQ = cq }

// takeRecv pops the next receive buffer for an arriving send: from the
// attached SRQ when present, else from the private receive queue. False
// means receiver-not-ready.
func (q *QP) takeRecv() (RecvWQE, bool) {
	if q.srq != nil {
		return q.srq.take()
	}
	if q.rq.Len() == 0 {
		return RecvWQE{}, false
	}
	r := q.rq.Pop()
	q.rqBytes -= int64(r.Cap)
	return r, true
}

// guardSend, which tests set, is shown every Send as q posts it and every
// completion as its consumer takes it (q and w nil), so that it can check
// that a posted buffer belongs to the fabric and is never written again. Off,
// it costs a branch.
var guardSend func(q *QP, w *SendWQE, c *CQE)

// PostSend enqueues a work request for the send engine. Posting to a closed
// endpoint completes the request with a flush error instead of panicking:
// with connection recovery in play, a reply handler or retransmission timer
// can legitimately race a Close issued by the reconnect path.
func (q *QP) PostSend(w *SendWQE) {
	if w.state != wqeIdle {
		panic(fmt.Sprintf("ibsim: PostSend on %s of a %v request that is %v", q.track, w.Op, w.state))
	}
	w.state, w.attempt = wqeInFlight, 0
	if guardSend != nil && w.Op == OpSend {
		guardSend(q, w, nil)
	}
	if q.closed {
		q.complete(w, fmt.Errorf("%w: flushed", ErrQPError), 0)
		return
	}
	if q.stream != 0 && w.Stream == 0 {
		w.Stream = q.stream // endpoint QPs always speak on their own stream
	}
	fab := q.node.fab
	if tr := fab.Sim.Tracer(); tr != nil {
		fab.wqeSeq++
		w.seq = fab.wqeSeq
		tr.Begin(int64(fab.Sim.Now()), trace.LayerIbsim, trace.KindWQE, q.track, w.Op.String(), w.seq, int64(w.Size()))
	}
	w.qp = q
	q.sq.Push(w)
	if !q.busy {
		q.start()
	}
}

// PostAndWait posts a work request and blocks until its completion, which it
// returns. This is the synchronous pattern kernel RPC threads use (e.g. the
// server blocking on its RDMA Read of a write chunk).
func (q *QP) PostAndWait(p *des.Proc, w *SendWQE) *CQE {
	w.Done = des.NewEvent(q.node.fab.Sim)
	q.PostSend(w)
	blocked := !w.Done.Fired()
	cqe := w.Done.Wait(p).(*CQE)
	if blocked {
		q.node.CPU.Interrupt(p)
	}
	return cqe
}

// Close shuts the endpoint down; queued and future work is flushed.
func (q *QP) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.setError(ErrQPError)
}

// start schedules the send engine's look at its queue: once at connect, then
// whenever a request is posted to an idle engine. Until that event runs the
// engine counts as busy, so requests posted meanwhile wait for it instead of
// scheduling a look of their own.
func (q *QP) start() {
	q.busy = true
	s := q.node.fab.Sim
	s.AtArg(s.Now(), engineNext, q)
}

// GetWQE returns a zeroed work request from the fabric's free list, for a
// request whose completion nobody will look at: it returns there as it
// completes. Signaled or with a Done it is an ordinary request, and collected.
func (q *QP) GetWQE() *SendWQE {
	w := q.node.fab.freeWQEs.Get()
	w.state, w.pooled = wqeIdle, true
	return w
}

// FreeWQEs returns the length of the fabric's free list: at most as many
// requests from GetWQE as were ever in flight at once.
func (f *Fabric) FreeWQEs() int { return len(f.freeWQEs) }

// complete posts a CQE for w and fires its done event. It is the fabric's
// last use of w.
func (q *QP) complete(w *SendWQE, err error, bytes int) {
	if w.seq != 0 {
		if tr := q.node.fab.Sim.Tracer(); tr != nil {
			var errFlag int64
			if err != nil {
				errFlag = 1
			}
			tr.End(int64(q.node.fab.Sim.Now()), trace.LayerIbsim, trace.KindWQE, q.track, w.Op.String(), w.seq, errFlag)
		}
	}
	w.state = wqeIdle
	if !w.Signaled && w.Done == nil {
		// Nobody can see the completion, and a request from GetWQE has no
		// other holder: zeroed, so that it pins no payload, buffer or QP.
		if w.pooled {
			*w = SendWQE{state: wqeFree}
			q.node.fab.freeWQEs.Put(w)
		}
		return
	}
	cqe := &w.cqe
	*cqe = CQE{WRID: w.WRID, Op: w.Op, Err: err, Bytes: bytes, QP: q, Stream: w.Stream}
	if w.Signaled {
		q.SendCQ.post(cqe)
	}
	if w.Done != nil {
		w.Done.Fire(cqe)
	}
}

// The send engine and the read responder are hardware: they never block on
// software, so they are not processes but chains of callbacks on the
// scheduler loop, one per step, each scheduling the next. A step issues its
// events with the statements, and in the order, a process body would.
//
// The engine launches work requests strictly in order: Send/Write data
// serializes on the transmit port (so a Send posted after a Write arrives
// after the Write's data — the ordering guarantee the Read-Write design
// exploits), while an RDMA Read only transmits its small request packet and
// its data returns asynchronously (so nothing orders a later Send against
// Read data — the reason the Read-Read server must block).
//
//	next      pop a request (flushing while the QP is in error), ring the
//	          doorbell, and launch it one WQEOverhead later; idle when the
//	          queue is empty
//	launch    resolve the peer, count the operation; a Read first takes an
//	          ORD slot
//	transmit  take the local transmit port, then the peer's receive port,
//	          hold both for the wire time, release them
//	sent      schedule the arrival one latency later (deliverSend,
//	          landWrite, respond), then next
//	respond   a Read request arriving: check the region, stream the data
//	          back over the responder's transmit port with the same three
//	          transfer steps, and land it one latency later (landRead)
//
// A step scheduled with AtArg or granted through AcquireThen takes the
// request as an any; the queue it was posted to is w.qp.
func engineNext(q any) { q.(*QP).next() }

// next moves the engine to the head of the send queue.
func (q *QP) next() {
	s := q.node.fab.Sim
	for q.sq.Len() > 0 {
		w := q.sq.Pop()
		if w.seq != 0 {
			if tr := s.Tracer(); tr != nil {
				tr.Instant(int64(s.Now()), trace.LayerIbsim, trace.KindDoorbell, q.track, w.Op.String(), w.seq, int64(q.sq.Len()))
			}
		}
		if q.errSt != nil {
			q.node.fab.hot.wqeFlushed.Inc()
			q.complete(w, fmt.Errorf("%w: flushed", q.errSt), 0)
			continue
		}
		s.AtArg(s.Now()+des.Time(q.node.cfg.WQEOverhead), launch, w)
		return
	}
	q.busy = false
}

// wireSize is what the request itself puts on the wire: its data, or for a
// Read the request packet.
func (w *SendWQE) wireSize() int {
	if w.Op == OpRead {
		return readRequestWireSize
	}
	return w.Size()
}

func launch(a any) {
	w := a.(*SendWQE)
	q := w.qp
	ctr := &q.node.fab.hot
	peer := q.peerFor(w.Stream)
	if peer == nil {
		ctr.wqeFlushed.Inc()
		q.complete(w, fmt.Errorf("%w: stale stream: flushed", ErrQPError), 0)
		q.next()
		return
	}
	w.from, w.to = q.node, peer.node
	size := int64(w.Size())
	switch w.Op {
	case OpSend:
		ctr.opSend.Inc()
		ctr.bytesSend.Add(size)
	case OpWrite:
		ctr.opWrite.Inc()
		ctr.bytesWrite.Add(size)
	case OpRead:
		ctr.opRead.Inc()
		ctr.bytesRead.Add(size)
		// ORD throttling: a Read that cannot get a slot stalls the send queue
		// head (strict in-order initiation), serializing everything behind it.
		// On a mux QP the ORD slots are shared across every endpoint — the
		// realistic contention cost of collapsing connections onto one QP.
		w.t0 = q.node.fab.Sim.Now()
		q.ord.AcquireThen(1, gotORD, w)
		return
	default:
		panic("ibsim: bad opcode on send queue")
	}
	q.transmit(w)
}

func gotORD(a any) {
	w := a.(*SendWQE)
	q := w.qp
	s := q.node.fab.Sim
	if w.seq != 0 && s.Now() > w.t0 {
		if tr := s.Tracer(); tr != nil {
			tr.Span(int64(w.t0), int64(s.Now()), trace.LayerIbsim, trace.KindORDWait, q.track, "ord-wait", w.seq, int64(q.ord.Capacity()))
		}
	}
	q.transmit(w)
}

// transmit puts the request on the wire toward w.to.
func (q *QP) transmit(w *SendWQE) {
	w.t0 = q.node.fab.Sim.Now()
	w.hold = transferDuration(w.wireSize(), w.from, w.to)
	w.then = (*SendWQE).sent
	w.transfer()
}

// transfer serializes bytes from w.from's port to w.to's, occupying both
// ends for w.hold (cut-through: both are held for the same interval, so a
// single stream achieves full port bandwidth while concurrent streams into
// one node share its port — the incast behaviour Fig. 10 relies on). w.then
// runs when the last byte has left; the data arrives one latency later.
func (w *SendWQE) transfer() { w.from.txPort.AcquireThen(1, gotTx, w) }

func gotTx(a any) { a.(*SendWQE).to.rxPort.AcquireThen(1, gotRx, a) }

func gotRx(a any) {
	w := a.(*SendWQE)
	s := w.qp.node.fab.Sim
	s.AtArg(s.Now()+des.Time(w.hold), offWire, w)
}

func offWire(a any) {
	w := a.(*SendWQE)
	w.to.rxPort.Release(1)
	w.from.txPort.Release(1)
	w.then(w)
}

// arrivals is what each opcode's bytes do at the far end.
var arrivals = [...]func(any){OpSend: deliverSend, OpWrite: landWrite, OpRead: respond}

// sent closes the request's wire interval, schedules its arrival and frees
// the engine for the next request.
func (w *SendWQE) sent() {
	q := w.qp
	s := q.node.fab.Sim
	if w.seq != 0 {
		if tr := s.Tracer(); tr != nil {
			tr.Span(int64(w.t0), int64(s.Now()), trace.LayerIbsim, trace.KindDMA, q.track, w.Op.String(), w.seq, int64(w.wireSize()))
		}
	}
	s.AtArg(s.Now()+des.Time(latency(w.from, w.to)), arrivals[w.Op], w)
	q.next()
}

// deliverSend consumes a posted receive at the peer, retrying on RNR. The
// peer is re-resolved on every attempt: on a mux QP the target endpoint can
// detach between retries, in which case the send flushes instead of landing
// on a recycled slot.
func deliverSend(a any) {
	w := a.(*SendWQE)
	q := w.qp
	ctr := &q.node.fab.hot
	s := q.node.fab.Sim
	if q.errSt != nil {
		q.complete(w, fmt.Errorf("%w: flushed", q.errSt), 0)
		return
	}
	peer := q.peerFor(w.Stream)
	if peer == nil {
		ctr.wqeFlushed.Inc()
		q.complete(w, fmt.Errorf("%w: stale stream: flushed", ErrQPError), 0)
		return
	}
	if peer.errSt != nil {
		q.complete(w, peer.errSt, 0)
		return
	}
	r, ok := peer.takeRecv()
	if !ok {
		ctr.rnr.Inc()
		if w.seq != 0 {
			if tr := s.Tracer(); tr != nil {
				tr.Instant(int64(s.Now()), trace.LayerIbsim, trace.KindRNR, q.track, w.Op.String(), w.seq, int64(w.attempt))
			}
		}
		if int(w.attempt) >= q.cfg.RNRRetryLimit {
			err := fmt.Errorf("%w after %d retries", ErrRNR, w.attempt)
			if q.mux {
				// One endpoint not posting receives must not take the shared
				// QP down: error stays scoped to the offending endpoint.
				peer.setError(err)
			} else {
				q.setError(err)
			}
			q.complete(w, err, 0)
			return
		}
		w.attempt++
		s.AtArg(s.Now()+des.Time(q.cfg.RNRRetryDelay), deliverSend, w)
		return
	}
	if len(w.Payload) > r.Cap {
		err := fmt.Errorf("%w: %d > %d", ErrRecvOverflow, len(w.Payload), r.Cap)
		if q.mux {
			peer.setError(err)
		} else {
			q.setError(err)
		}
		peer.RecvCQ.post(&CQE{WRID: r.WRID, Op: OpRecv, Err: err, QP: peer, Stream: w.Stream, SrcStream: q.stream})
		q.complete(w, err, 0)
		return
	}
	c := peer.RecvCQ.free.Get()
	*c = CQE{
		WRID: r.WRID, Op: OpRecv,
		Bytes: len(w.Payload), Payload: w.Payload, QP: peer, Stream: w.Stream,
		SrcStream: q.stream, pooled: true,
	}
	peer.RecvCQ.post(c)
	// Ack returns to the sender one latency later.
	s.AtArg(s.Now()+des.Time(latency(q.node, peer.node)), ackSend, w)
}

// ackSend is the acknowledgement of a delivered Send reaching the sender.
func ackSend(a any) {
	w := a.(*SendWQE)
	w.qp.complete(w, nil, len(w.Payload))
}

func landWrite(a any) {
	w := a.(*SendWQE)
	q := w.qp
	ctr := &q.node.fab.hot
	// A fault injected while the data was on the wire flushes the
	// in-flight WQE instead of letting it land as if healthy. The peer is
	// re-resolved so a write to a detached endpoint flushes too rather
	// than landing in a recycled slot.
	if q.errSt != nil {
		ctr.wqeFlushed.Inc()
		q.complete(w, fmt.Errorf("%w: flushed", q.errSt), 0)
		return
	}
	peer := q.peerFor(w.Stream)
	if peer == nil || peer.errSt != nil {
		ctr.wqeFlushed.Inc()
		q.complete(w, fmt.Errorf("%w: flushed", ErrQPError), 0)
		return
	}
	size := w.Size()
	mr, err := peer.node.HCA.lookup(w.RemoteKey, w.RemoteAddr, size, AccessRemoteWrite)
	if err != nil {
		q.node.fab.Counters.Inc("protection_error")
		q.setError(err)
		q.complete(w, err, 0)
		return
	}
	// Data moves whenever both endpoints are materialized: control
	// payloads (long calls/replies) are always real even in
	// phantom-data mode; phantom bulk buffers skip naturally.
	copyOut(mr, w.RemoteAddr, w.Local)
	peer.node.HCA.notifyWrite(w.RemoteKey, w.RemoteAddr, size)
	q.complete(w, nil, size)
}

// flushRead completes a Read that cannot finish and returns its ORD slot.
func (q *QP) flushRead(w *SendWQE, err error) {
	q.node.fab.hot.wqeFlushed.Inc()
	q.ord.Release(1)
	q.complete(w, fmt.Errorf("%w: flushed", err), 0)
}

// respond is the far end receiving a Read request.
func respond(a any) {
	w := a.(*SendWQE)
	q := w.qp
	if q.errSt != nil {
		q.flushRead(w, q.errSt)
		return
	}
	peer := q.peerFor(w.Stream)
	if peer == nil || peer.errSt != nil {
		q.flushRead(w, ErrQPError)
		return
	}
	size := w.Size()
	mr, err := peer.node.HCA.lookup(w.RemoteKey, w.RemoteAddr, size, AccessRemoteRead)
	if err != nil {
		q.node.fab.Counters.Inc("protection_error")
		s := q.node.fab.Sim
		s.At(s.Now()+des.Time(latency(q.node, peer.node)), func() {
			q.setError(err)
			q.ord.Release(1)
			q.complete(w, err, 0)
		})
		return
	}
	// Responder streams the data back on its transmit port, paying the
	// per-read channel turnaround.
	w.mr = mr
	w.from, w.to = peer.node, q.node
	w.hold = transferDuration(size, w.from, w.to) + peer.node.cfg.ReadResponseOverhead
	w.then = (*SendWQE).readSent
	w.transfer()
}

func (w *SendWQE) readSent() {
	s := w.qp.node.fab.Sim
	s.AtArg(s.Now()+des.Time(latency(w.from, w.to)), landRead, w)
}

func landRead(a any) {
	w := a.(*SendWQE)
	q := w.qp
	if q.errSt != nil {
		q.flushRead(w, q.errSt)
		return
	}
	copyIn(w.Local, w.mr, w.RemoteAddr)
	q.ord.Release(1)
	q.complete(w, nil, w.Size())
}

// copyOut materializes an RDMA Write: local gather list -> remote MR bytes.
func copyOut(mr *MR, remoteAddr uint64, local []LocalSeg) {
	buf, off := mr.resolve(remoteAddr)
	if buf == nil || buf.data == nil {
		return
	}
	for _, seg := range local {
		if seg.Buf != nil && seg.Buf.data != nil {
			copy(buf.data[off:off+seg.Len], seg.Buf.data[seg.Off:seg.Off+seg.Len])
		}
		off += seg.Len
	}
}

// copyIn materializes an RDMA Read: remote MR bytes -> local scatter list.
func copyIn(local []LocalSeg, mr *MR, remoteAddr uint64) {
	buf, off := mr.resolve(remoteAddr)
	if buf == nil || buf.data == nil {
		return
	}
	for _, seg := range local {
		if seg.Buf != nil && seg.Buf.data != nil {
			copy(seg.Buf.data[seg.Off:seg.Off+seg.Len], buf.data[off:off+seg.Len])
		}
		off += seg.Len
	}
}
