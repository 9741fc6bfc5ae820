package oncrpc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/des"
	"repro/internal/trace"
	"repro/internal/xdr"
)

// ProcNamer is implemented by services that can name their procedures for
// tracing; without it, dispatch spans fall back to the service name.
type ProcNamer interface {
	ProcName(proc uint32) string
}

// Dispatcher routes decoded calls to registered services and encodes
// replies. Server transports own the worker model: RPC/RDMA's server
// threads call DispatchThen from their chains, the stream transport calls
// Dispatch from its worker processes.
type Dispatcher struct {
	services map[[2]uint32]Service
	drc      *drc  // nil unless EnableDRC was called
	badCalls int64 // messages dropped because they did not decode as a call

	free  des.FreeList[ServerRequest] // requests between calls, zeroed
	calls des.FreeList[Serving]       // Dispatch's states between calls, zeroed
	block []byte                      // what is left of the block replies are carved from
}

// replyBlock is the size of the blocks reply buffers are carved from.
const replyBlock = 64 << 10

// newReply returns a buffer for one reply: room zero bytes, then capacity for
// exactly the n bytes of the reply, which the caller appends. The buffer is
// carved from the current block and no byte is handed out twice: the peer
// reads a posted reply by reference, so nothing is reused, and a block is
// collected when the last reply in it is, as the kernel's page-fragment
// allocator frees skb heads. A reply of more than a quarter block gets a
// buffer of its own.
func (d *Dispatcher) newReply(room, n int) []byte {
	size := room + n
	if size > replyBlock/4 {
		return make([]byte, room, size)
	}
	if len(d.block) < size {
		d.block = make([]byte, replyBlock)
	}
	b := d.block[:room:size]
	d.block = d.block[size:]
	return b
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{services: make(map[[2]uint32]Service)}
}

// Register adds a service; registering a duplicate (program, version)
// panics, as that is always a wiring bug.
func (d *Dispatcher) Register(s Service) {
	k := [2]uint32{s.Program(), s.Version()}
	if _, dup := d.services[k]; dup {
		panic(fmt.Sprintf("oncrpc: duplicate service %d/%d", k[0], k[1]))
	}
	d.services[k] = s
}

// DispatchOpts carries the transport-side context of one call.
type DispatchOpts struct {
	// Bulk is pulled call payload (e.g. WRITE data).
	Bulk *Bulk
	// RecvBulkCap is the client's advertised reply-payload capacity.
	RecvBulkCap int
	// ReplyBuf is a transport-provided reply staging buffer (see
	// ServerRequest.ReplyBuf).
	ReplyBuf *Bulk
	// Room is how many bytes the transport keeps free in front of the reply
	// message, in the same buffer, for its own header (zero for none).
	Room int
	// Peer is the transport-authenticated identity of the calling machine
	// (e.g. the node name behind the connection). When set, the DRC keys
	// replay state by it instead of the forgeable AUTH_SYS machine-name
	// credential — a client lying about Cred.Machine can then neither read
	// another machine's cached replies nor pre-poison its replay keys.
	Peer string
}

// BadCalls returns how many messages Dispatch rejected because they did not
// decode as an ONC RPC call it accepts: those it dropped, and those it denied.
func (d *Dispatcher) BadCalls() int64 { return d.badCalls }

// Dispatch executes one raw call message and returns the marshaled reply,
// opts.Room zero bytes and then the reply message, in a buffer that is the
// caller's, plus any reply payload for placement.
//
// A nil error with a non-Success accept status is a protocol-level rejection
// encoded in the reply. A non-nil error means the call did not decode, and is
// counted in BadCalls. A call of an RPC version other than 2, or whose
// credential or verifier is not AUTH_NONE or AUTH_SYS in its canonical
// encoding, is still owed a reply once its XID decoded: the MSG_DENIED reply
// comes back with the error (RFC 5531 RPC_MISMATCH, AUTH_ERROR), so that its
// sender fails at once instead of retransmitting until it gives up. Any other
// error comes with no reply, and nothing is allocated. A nil reply with a nil
// error means the call was a retransmission of a request still executing: the
// transport must drop it silently — the original execution will produce the
// reply.
//
// The ServerRequest the service sees is the dispatcher's, reused once
// Dispatch returns, and the reply is built in its scratch; what Dispatch
// returns is a copy carved at its exact size from the dispatcher's blocks
// (newReply), never reused. Dispatch is DispatchThen run on p.
func (d *Dispatcher) Dispatch(p *des.Proc, rawCall []byte, opts DispatchOpts) (reply []byte, bulkOut *Bulk, err error) {
	st := d.calls.Get()
	d.DispatchThen(p.Sim(), st, rawCall, opts, des.Resumer, p)
	p.Suspend()
	reply, bulkOut, err = st.Reply, st.Bulk, st.Err
	*st = Serving{}
	d.calls.Put(st)
	return reply, bulkOut, err
}

// Serving is the state of one DispatchThen in flight, kept in storage its
// caller owns and reuses, and its outcome: Dispatch's three results.
type Serving struct {
	Reply []byte
	Bulk  *Bulk
	Err   error

	d     *Dispatcher
	sim   *des.Sim
	req   *ServerRequest
	svc   Service
	resp  ServerResponse
	room  int
	cache bool
	drcID string
	key   clientKey
	start des.Time
	tr    *trace.Tracer // the tracer when the dispatch began
	fn    func(any)
	arg   any
}

// DispatchThen is Dispatch as a chain on sim: fn(arg) runs once st holds
// the outcome.
func (d *Dispatcher) DispatchThen(sim *des.Sim, st *Serving, rawCall []byte, opts DispatchOpts, fn func(any), arg any) {
	st.begin(d, sim, opts.Room, fn, arg)
	var call CallHeader
	args, err := decodeCall(&call, rawCall, opts.Peer)
	if err != nil {
		d.badCalls++
		st.Reply, st.Err = d.deny(call.XID, err, opts.Room), err
		st.finish()
		return
	}
	req := d.free.Get()
	st.req = req
	req.Header, req.Args = call, args
	req.Bulk, req.RecvBulkCap, req.ReplyBuf = opts.Bulk, opts.RecvBulkCap, opts.ReplyBuf
	hdr := &req.Header
	tr := sim.Tracer()
	st.key = clientKey{xid: hdr.XID, prog: hdr.Prog, proc: hdr.Proc}
	// DRC identity: the transport-authenticated peer when the transport
	// knows one, else the (spoofable) credential machine name. Trace labels
	// keep the credential — what the client *claimed* is the interesting
	// datum when the two diverge.
	st.drcID = hdr.Cred.Machine
	if opts.Peer != "" {
		st.drcID = opts.Peer
	}
	if d.drc != nil {
		switch e, state := d.drc.lookup(st.drcID, st.key); state {
		case drcHit:
			// Retransmission: replay the cached reply without re-executing.
			if tr != nil {
				tr.Instant(int64(sim.Now()), trace.LayerONCRPC, trace.KindDRCHit, hdr.Cred.Machine, "drc-hit", uint64(hdr.XID), int64(hdr.Proc))
			}
			st.Reply, st.Bulk = append(d.newReply(opts.Room, len(e.reply)), e.reply...), e.bulk
			st.finish()
			return
		case drcExecuting:
			// The original call is still in a handler; drop this copy.
			if tr != nil {
				tr.Instant(int64(sim.Now()), trace.LayerONCRPC, trace.KindDRCSuppress, hdr.Cred.Machine, "drc-suppress", uint64(hdr.XID), int64(hdr.Proc))
			}
			st.finish()
			return
		}
	}
	// The reply is built in the request's scratch, where the service appends
	// its results behind the accepted-reply header, whose status word says
	// ProgUnavail until HandleThen has said what it is.
	svc, ok := d.services[[2]uint32{hdr.Prog, hdr.Vers}]
	appendReply(&req.Reply, hdr.XID, ProgUnavail)
	if !ok {
		st.Reply = append(d.newReply(opts.Room, req.Reply.Len()), req.Reply.Bytes()...)
		st.finish()
		return
	}
	// Cache when the service cannot classify (conservative: everything) or
	// classifies this procedure as non-idempotent. The placeholder goes in
	// before HandleThen so a duplicate arriving mid-execution is suppressed.
	st.cache = d.drc != nil
	if cl, ok := svc.(IdempotencyClassifier); ok && st.cache {
		st.cache = cl.NonIdempotent(hdr.Proc)
	}
	if st.cache {
		d.drc.begin(st.drcID, st.key)
	}
	st.svc, st.start, st.tr = svc, sim.Now(), tr
	svc.HandleThen(req, &st.resp, handled, st)
}

// handled completes a dispatch once the service has answered.
func handled(a any) {
	st := a.(*Serving)
	req, svc := st.req, st.svc
	hdr := &req.Header
	if tr := st.tr; tr != nil {
		name := svc.Name()
		if pn, ok := svc.(ProcNamer); ok {
			name = pn.ProcName(hdr.Proc)
		}
		tr.Span(int64(st.start), int64(st.sim.Now()), trace.LayerONCRPC, trace.KindDispatch,
			hdr.Cred.Machine, name, uint64(hdr.XID), int64(hdr.Proc))
	}
	reply := req.Reply.Bytes()
	binary.BigEndian.PutUint32(reply[replyPrefix-4:], uint32(st.resp.Stat))
	if st.cache {
		st.d.drc.commit(st.drcID, st.key, reply, st.resp.Bulk)
	}
	st.Reply, st.Bulk = append(st.d.newReply(st.room, len(reply)), reply...), st.resp.Bulk
	st.finish()
}

// begin readies st for a dispatch ending in fn(arg). It sets the fields one
// by one, as finish clears them: a whole-struct assignment would copy st
// twice per call.
func (st *Serving) begin(d *Dispatcher, sim *des.Sim, room int, fn func(any), arg any) {
	st.Reply, st.Bulk, st.Err = nil, nil, nil
	st.d, st.sim, st.req, st.room, st.cache, st.fn, st.arg = d, sim, nil, room, false, fn, arg
}

// finish hands the request back and ends the dispatch: fn(arg), with st
// holding only the outcome.
func (st *Serving) finish() {
	if st.req != nil {
		st.d.put(st.req)
	}
	fn, arg := st.fn, st.arg
	st.d, st.sim, st.req, st.svc, st.resp, st.tr, st.fn, st.arg = nil, nil, nil, nil, ServerResponse{}, nil, nil, nil
	st.drcID = ""
	fn(arg)
}

// deny returns the MSG_DENIED reply a call with XID xid that decodeCall
// rejected with err is owed, behind room zero bytes, or nil (denial).
func (d *Dispatcher) deny(xid uint32, err error, room int) []byte {
	stat := denial(err)
	if stat == nil {
		return nil
	}
	var e xdr.Encoder
	e.Reset(d.newReply(room, 4*(3+len(stat))))
	e.Uint32(xid)
	e.Uint32(msgTypeReply)
	e.Uint32(replyStatDenied)
	for _, w := range stat {
		e.Uint32(w)
	}
	return e.Bytes()
}

// put takes a request back once Dispatch is done with it, keeping only its
// reply scratch, emptied: the reply was copied out of it, the descriptors are
// the transport's and the DRC copies what it caches.
func (d *Dispatcher) put(req *ServerRequest) {
	scratch := req.Reply.Bytes()[:0]
	*req = ServerRequest{}
	req.Reply.Reset(scratch)
	d.free.Put(req)
}

// FreeRequests returns how many requests wait for reuse: at most as many as
// calls were ever in their handlers at once.
func (d *Dispatcher) FreeRequests() int { return len(d.free) }
