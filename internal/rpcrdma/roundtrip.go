package rpcrdma

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/trace"
)

// A call's path through the client — its CPU charge, the credit gate, the
// serialized send section, registration, the post, the wait for the reply,
// and the teardown after it — waits only for the
// host CPU, the HCA, time and FIFO resources. So it is a chain of callbacks
// on the scheduler loop, each step taken at the instant and in the place in
// the event order where the caller's process would take it, with its state
// in a roundtrip the transport owns and reuses. The caller parks once: it
// Suspends after starting the chain, and the chain's last step Resumes it.
//
//	rtCharged     PerOpCPU; the credit gate
//	rtCredited    the call's header; the serialized section
//	marshal       call payload: register it (direct) or stage and copy it
//	recvPlacement reply payload: register the caller's buffer (direct I/O)
//	              or stage it
//	longReply     the Read-Write reply chunk
//	replySlot     the Reply-Fetch reply slot and its poller
//	frame         a long call's staging and copy, or the header in place
//	rtPost        the Send and the call timer; the reply wait
//	rtWoken       a reply, or a timeout, which closes the connection
//	rtEnd         the staging copy, the teardown, the rpc span, the credit

// roundtrip is the state of one Roundtrip in flight.
type roundtrip struct {
	t    *ClientTransport
	p    *des.Proc // the caller
	req  *oncrpc.Request
	pend *pending
	hdr  Header
	tr   *trace.Tracer // the tracer when the call began, which its spans go to

	rtStart, creditStart des.Time
	wire                 []byte
	waiting              bool // for the reply: a completion of pend.done wakes the chain
	handlerReleases      bool // a reply handler still in flight releases the call's buffers
	res                  *rtResult

	charge cpu.Charge
	credit creditWait
	down   teardown // its memreg step state serves the send path too, which ends before it begins
	next   func(*roundtrip)
	fetch  *fetcher // the Reply-Fetch poller, which outlives the call
}

// Roundtrip implements oncrpc.Transport: one full RPC exchange under the
// configured design.
func (t *ClientTransport) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	if t.closed {
		return nil, ErrClosed
	}
	if err := t.qp.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	t.Calls++
	// A roundtrip comes zeroed from the free list (or new): its fields are
	// set one by one, where a composite literal would copy the whole record.
	rt := t.rts.Get()
	sim := t.node.Sim()
	rt.t, rt.p, rt.req, rt.tr, rt.rtStart = t, p, req, sim.Tracer(), sim.Now()
	t.node.CPU.WorkThen(&rt.charge, t.cfg.PerOpCPU, rtCharged, rt)
	p.Suspend()
	res := rt.res
	*rt = roundtrip{}
	t.rts.Put(rt)
	if res.err != nil {
		return nil, res.err
	}
	return &res.Response, nil
}

// then calls rt.next, the step a wait was for.
func rtThen(a any) {
	rt := a.(*roundtrip)
	next := rt.next
	rt.next = nil
	next(rt)
}

func (rt *roundtrip) work(d des.Duration, next func(*roundtrip)) {
	rt.next = next
	rt.t.node.CPU.WorkThen(&rt.charge, d, rtThen, rt)
}

func rtCharged(a any) {
	rt := a.(*roundtrip)
	rt.creditStart = rt.t.node.Sim().Now()
	rt.t.inflight.acquireThen(&rt.credit, rtCredited, rt)
}

func rtCredited(a any) {
	rt := a.(*roundtrip)
	t, req := rt.t, rt.req
	now := t.node.Sim().Now()
	if rt.tr != nil && now > rt.creditStart {
		rt.tr.Span(int64(rt.creditStart), int64(now), trace.LayerRPC, trace.KindCreditWait, t.node.Name(), "credit-wait", uint64(req.XID), int64(t.inflight.Granted()))
	}
	pend, _ := req.State.(*pending)
	if pend == nil || pend.t != t || pend.req != nil {
		pend = &pending{t: t}
	}
	pend.req, pend.rt = req, rt
	pend.done.Init(t.node.Sim())
	pend.segs = pend.segStore[:0]
	rt.pend = pend
	rt.hdr = Header{XID: req.XID, Credits: uint32(t.cfg.Credits), Type: MsgRDMA, ReadList: pend.readStore[:0]}

	// The client send path — chunk marshalling, registrations, posting —
	// runs under the transport's serialized section when modelled.
	if t.serial != nil {
		t.serial.AcquireThen(1, rtSerialized, rt)
		return
	}
	marshal(rt)
}

func rtSerialized(a any) {
	rt := a.(*roundtrip)
	req, s := rt.req, rt.t.node.Sim()
	bulkBytes := 0
	if req.SendBulk != nil {
		bulkBytes += req.SendBulk.Len
	}
	if req.RecvBulk != nil {
		bulkBytes += req.RecvBulk.Len
	}
	rt.next = marshal
	s.AtArg(s.Now()+des.Time(max(rt.t.cfg.serialHold(bulkBytes), 0)), rtThen, rt)
}

// marshal advertises call payload (e.g. WRITE data) as a read chunk list for
// the server to pull, in every design.
func marshal(rt *roundtrip) {
	t, req := rt.t, rt.req
	if req.SendBulk == nil || req.SendBulk.Len == 0 {
		recvPlacement(rt)
		return
	}
	n := req.SendBulk.Len
	if buf, off := bulkBuffer(req.SendBulk); buf != nil {
		t.mgr.RegisterExternalThen(&rt.down.op, buf, off, n, ibsim.AccessRemoteRead, srcRegistered, rt)
		return
	}
	t.mgr.GetPayloadThen(&rt.down.op, n, ibsim.AccessRemoteRead, srcStaged, rt)
}

func srcRegistered(a any) {
	rt := a.(*roundtrip)
	rt.pend.srcReg = rt.down.op.Registration()
	rt.advertiseSrc(rt.pend.srcReg)
}

func srcStaged(a any) {
	rt := a.(*roundtrip)
	pend, req := rt.pend, rt.req
	pend.srcChk = rt.down.op.Chunk()
	if d := pend.srcChk.Data(); d != nil && req.SendBulk.Data != nil {
		copy(d, req.SendBulk.Data[:req.SendBulk.Len])
	}
	rt.work(rt.t.node.CPU.CopyCost(req.SendBulk.Len), srcCopied)
}

func srcCopied(rt *roundtrip) { rt.advertiseSrc(rt.pend.srcChk.Reg) }

func (rt *roundtrip) advertiseSrc(reg *memreg.Registration) {
	n := rt.req.SendBulk.Len
	rt.t.traceExpose(rt.req.XID, reg, n)
	rt.hdr.ReadList = appendReadSegs(rt.hdr.ReadList, uint32(len(rt.req.Header)), reg, n)
	recvPlacement(rt)
}

// recvPlacement prepares the reply-payload (e.g. READ data) destination per
// design.
func recvPlacement(rt *roundtrip) {
	t, req, pend := rt.t, rt.req, rt.pend
	if req.RecvBulk == nil || req.RecvBulk.Len == 0 {
		longReply(rt)
		return
	}
	n := req.RecvBulk.Len
	buf, off := bulkBuffer(req.RecvBulk)
	switch t.cfg.Design {
	case ReadWrite, ReplyFetch:
		// ReplyFetch keeps the Read-Write bulk path: data still lands by
		// server RDMA Write into the advertised write list; only the reply
		// *message* moves to the slot-deposit flow.
		if buf != nil && req.DirectIO {
			// Zero-copy direct I/O: expose the caller's buffer for the
			// server's RDMA Write; data lands in place.
			pend.destBuf, pend.destOff = buf, off
			t.mgr.RegisterExternalThen(&rt.down.op, buf, off, n, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite, destRegistered, rt)
			return
		}
		// Buffered path: server writes into transport staging; one copy
		// to the caller afterwards.
		t.mgr.GetPayloadThen(&rt.down.op, n, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite, destStaged, rt)
	case ReadRead:
		// Nothing is advertised: the server will expose chunks in its reply
		// and this client pulls them into local staging, then copies out —
		// the Read-Read design has no zero-copy path (§5.1).
		t.mgr.GetPayloadThen(&rt.down.op, n, ibsim.AccessLocalWrite, destStaged, rt)
	}
}

func destRegistered(a any) {
	rt := a.(*roundtrip)
	rt.pend.destReg = rt.down.op.Registration()
	rt.hdr.WriteList = rt.t.expose(rt.pend, rt.pend.destReg, rt.req.RecvBulk.Len)
	longReply(rt)
}

func destStaged(a any) {
	rt := a.(*roundtrip)
	pend := rt.pend
	pend.destChk = rt.down.op.Chunk()
	pend.destBuf, pend.destOff = &pend.destChk.Buf, 0
	pend.needCopy = true
	if rt.t.cfg.Design != ReadRead {
		rt.hdr.WriteList = rt.t.expose(pend, pend.destChk.Reg, rt.req.RecvBulk.Len)
	}
	longReply(rt)
}

// longReply stages the Read-Write reply chunk: the client must advertise one
// big enough for the whole reply message.
func longReply(rt *roundtrip) {
	t, req := rt.t, rt.req
	if req.LongReplyCap > 0 && t.cfg.Design == ReadWrite {
		t.mgr.GetThen(&rt.down.op, req.LongReplyCap+256, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite, replyChunkStaged, rt)
		return
	}
	replySlot(rt)
}

func replyChunkStaged(a any) {
	rt := a.(*roundtrip)
	rt.pend.replyChk = rt.down.op.Chunk()
	rt.hdr.ReplyChunk = rt.t.expose(rt.pend, rt.pend.replyChk.Reg, rt.req.LongReplyCap+256)
	replySlot(rt)
}

// slotBytes is the Reply-Fetch slot a call advertises: doorbell word plus
// reply capacity.
func (rt *roundtrip) slotBytes() int {
	t, req := rt.t, rt.req
	capBytes := doorbellBytes + t.cfg.recvBufSize()
	if req.LongReplyCap > 0 && req.LongReplyCap+256 > t.cfg.recvBufSize() {
		capBytes = doorbellBytes + req.LongReplyCap + 256
	}
	return capBytes
}

// replySlot stages the reply slot (ReplyFetch design): every call
// pre-registers a remotely writable slot — doorbell word plus reply
// capacity — and advertises it as the reply chunk. The whole reply (header,
// inline body, long replies included) is deposited there, so the slot
// subsumes the Read-Write long-reply chunk. This per-call MR is RFP's
// structural exposure: it is the *client* that opens its memory, which is
// exactly what the expose instants let the invariant checkers price.
func replySlot(rt *roundtrip) {
	if rt.t.cfg.Design != ReplyFetch {
		frame(rt)
		return
	}
	rt.t.mgr.GetThen(&rt.down.op, rt.slotBytes(), ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite, slotStaged, rt)
}

func slotStaged(a any) {
	rt := a.(*roundtrip)
	pend := rt.pend
	pend.slotChk = rt.down.op.Chunk()
	rt.hdr.ReplyChunk = rt.t.expose(pend, pend.slotChk.Reg, rt.slotBytes())
	rt.fetch = &fetcher{pend: pend, slot: rt.hdr.ReplyChunk[0]}
	rt.fetch.arm()
	frame(rt)
}

// frame builds the wire message. A long call travels as a position-0 read
// chunk under RDMA_NOMSG, and the server pulls the message body with RDMA
// Read. Any other call is framed in place, in the room Call kept in front of
// it.
func frame(rt *roundtrip) {
	t, req := rt.t, rt.req
	if len(req.Header) > t.cfg.InlineThreshold {
		t.mgr.GetThen(&rt.down.op, len(req.Header), ibsim.AccessRemoteRead, longCallStaged, rt)
		return
	}
	// A header that outgrew the room slides the call: a replay must copy
	// it from where it now lies.
	rt.wire = rt.hdr.frame(req.Frame(), req.Room)
	req.Header = rt.wire[len(rt.wire)-len(req.Header):]
	rtPost(rt)
}

func longCallStaged(a any) {
	rt := a.(*roundtrip)
	pend, req := rt.pend, rt.req
	pend.longCall = rt.down.op.Chunk()
	if d := pend.longCall.Data(); d != nil {
		copy(d, req.Header)
	} else {
		panic("rpcrdma: long-call staging must be materialized")
	}
	rt.work(rt.t.node.CPU.CopyCost(len(req.Header)), longCallCopied)
}

func longCallCopied(rt *roundtrip) {
	t, pend, req := rt.t, rt.pend, rt.req
	rt.hdr.Type = MsgNoMsg
	t.traceExpose(req.XID, pend.longCall.Reg, len(req.Header))
	rt.hdr.ReadList = appendReadSegs(rt.hdr.ReadList, 0, pend.longCall.Reg, len(req.Header))
	rt.wire = rt.hdr.Encode()
	rtPost(rt)
}

// rtPost sends the call, arms its timer and waits for the reply.
func rtPost(rt *roundtrip) {
	t, pend, req := rt.t, rt.pend, rt.req
	t.pending[req.XID] = pend
	t.armTimer(pend)
	t.send(req.XID, rt.wire)
	if t.serial != nil {
		t.serial.Release(1)
	}
	// The reply, the call timer or a transport failure fires the call's done
	// event; it may have fired already.
	if pend.done.Fired() {
		rtWoken(rt)
		return
	}
	rt.waiting = true
}

// woken wakes the Roundtrip waiting for the call's done event, which was
// just fired, where the resume of a process waiting on it would go.
func (pend *pending) woken() {
	rt := pend.rt
	if rt == nil || !rt.waiting {
		return
	}
	rt.waiting = false
	s := rt.t.node.Sim()
	s.AtArg(s.Now(), rtWoken, rt)
}

// rtWoken ends the wait. A timeout closes the call's connection before the
// call gives its buffers back: every other call on it fails with a transport
// error, and nothing the server still sends for this one can land in them
// (the fabric flushes a Write to a queue pair in error). The recovery layer
// replays the call, with its XID, on a new connection.
func rtWoken(a any) {
	rt := a.(*roundtrip)
	t, req := rt.t, rt.req
	rt.res = rt.pend.done.Value().(*rtResult)
	if errors.Is(rt.res.err, ErrTimeout) {
		t.Timeouts++
		for _, c := range t.counted {
			c.Timeouts++
		}
		if rt.tr != nil {
			rt.tr.Instant(int64(t.node.Sim().Now()), trace.LayerRPC, trace.KindTimeout, t.node.Name(), "timeout", uint64(req.XID), 0)
		}
		t.Close()
	}
	rtEnd(rt)
}

// rtEnd ends the call: a Read-Read pull still reading chunks for it owns the
// buffer release from here on (see pullEnd), so its in-flight RDMA Reads
// cannot land in recycled staging; the staging copy still happens here,
// while the chunk is guaranteed alive.
func rtEnd(rt *roundtrip) {
	t, pend, res := rt.t, rt.pend, rt.res
	delete(t.pending, rt.req.XID)
	pend.aborted, pend.rt = true, nil
	rt.handlerReleases = pend.handling > 0
	if pend.needCopy && res.err == nil && res.BulkLen > 0 && pend.req.RecvBulk != nil {
		// The staging-to-caller copy runs in the client's RPC completion
		// path; under the serialized-stack model it holds the same lock as
		// the send path, which is what keeps the buffered read path well
		// below the direct-I/O one on the Solaris profile.
		if t.serial != nil {
			t.serial.AcquireThen(1, copySerialized, rt)
			return
		}
		copySerialized(rt)
		return
	}
	rtTeardown(rt)
}

func copySerialized(a any) {
	rt := a.(*roundtrip)
	rt.work(rt.t.node.CPU.CopyCost(rt.res.BulkLen), stagingCopied)
}

func stagingCopied(rt *roundtrip) {
	t, pend := rt.t, rt.pend
	if t.serial != nil {
		t.serial.Release(1)
	}
	if d := pend.destChk.Data(); d != nil && pend.req.RecvBulk.Data != nil {
		copy(pend.req.RecvBulk.Data, d[:min(rt.res.BulkLen, len(d))])
	}
	rtTeardown(rt)
}

func rtTeardown(rt *roundtrip) {
	if rt.handlerReleases {
		rtReleased(rt)
		return
	}
	rt.down.release(rt.t, rt.pend, rt.fetch, rtReleased, rt)
}

// rtReleased closes the rpc span, returns the credit and resumes the caller.
func rtReleased(a any) {
	rt := a.(*roundtrip)
	t := rt.t
	if rt.tr != nil {
		var errFlag int64
		if rt.res.err != nil {
			errFlag = 1
		}
		rt.tr.Span(int64(rt.rtStart), int64(t.node.Sim().Now()), trace.LayerRPC, trace.KindRPC, t.node.Name(), "rpc", uint64(rt.req.XID), errFlag)
	}
	t.inflight.release()
	t.node.Sim().Resume(rt.p)
}

// teardown is a chain freeing a call's registrations and staging chunks, in
// a fixed order.
type teardown struct {
	t     *ClientTransport
	pend  *pending
	fetch *fetcher
	step  int
	op    memreg.Op
	fn    func(any)
	arg   any
}

// release frees pend's registrations and staging chunks, then calls fn(arg).
// fetch is the call's reply-slot poller, nil outside Reply-Fetch.
func (r *teardown) release(t *ClientTransport, pend *pending, fetch *fetcher, fn func(any), arg any) {
	r.t, r.pend, r.fetch, r.fn, r.arg = t, pend, fetch, fn, arg // r is zero: next zeroes it when it ends
	r.next()
}

func teardownNext(a any) { a.(*teardown).next() }

func (r *teardown) next() {
	pend, mgr := r.pend, r.t.mgr
	for {
		r.step++
		switch r.step {
		case 1:
			if pend.destReg != nil {
				mgr.DeregisterExternalThen(&r.op, pend.destReg, teardownNext, r)
				return
			}
		case 2:
			if pend.destChk != nil {
				mgr.PutThen(&r.op, pend.destChk, teardownNext, r)
				return
			}
		case 3:
			if pend.srcReg != nil {
				mgr.DeregisterExternalThen(&r.op, pend.srcReg, teardownNext, r)
				return
			}
		case 4:
			if pend.srcChk != nil {
				mgr.PutThen(&r.op, pend.srcChk, teardownNext, r)
				return
			}
		case 5:
			if pend.longCall != nil {
				mgr.PutThen(&r.op, pend.longCall, teardownNext, r)
				return
			}
		case 6:
			if pend.replyChk != nil {
				mgr.PutThen(&r.op, pend.replyChk, teardownNext, r)
				return
			}
		case 7:
			if pend.slotChk != nil {
				r.fetch.watch.Cancel() // no deposit is watched for once the slot goes away
				mgr.PutThen(&r.op, pend.slotChk, teardownNext, r)
				return
			}
		default:
			fn, arg := r.fn, r.arg
			*r = teardown{}
			fn(arg)
			return
		}
	}
}
