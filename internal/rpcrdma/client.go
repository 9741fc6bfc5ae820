package rpcrdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/trace"
)

// Config tunes an RPC/RDMA endpoint (client or server side).
type Config struct {
	Design Design

	// InlineThreshold is the largest message sent inline with RDMA Send;
	// larger messages use long calls / long replies.
	InlineThreshold int

	// Credits bounds in-flight RPCs per connection: the client posts this
	// many receives and never exceeds it with outstanding calls.
	Credits int

	// PerOpCPU is protocol processing cost charged per call at this
	// endpoint.
	PerOpCPU des.Duration

	// Workers is the server worker-thread count (server side only).
	Workers int

	// ReplyBufPool bounds parked reply buffers awaiting RDMA_DONE in the
	// Read-Read design (server side only). A malicious client that
	// withholds DONE messages pins this pool — the §4.1 vulnerability.
	ReplyBufPool int

	// SerialBase and SerialPerByteNs model a serialized RPC/RDMA code path
	// (the OpenSolaris taskq of Figure 1): every call holds a single lock
	// for SerialBase plus SerialPerByteNs nanoseconds per bulk byte while
	// marshalling chunks and registering buffers. Zero values disable the
	// stage (the Linux profile's independent svc threads).
	SerialBase      des.Duration
	SerialPerByteNs float64

	// SerializeSyncRead, when set, holds the serial stage across the
	// synchronous RDMA Read wait on the server's receive path — the §4.1
	// "synchronous RDMA Read limitation" at its worst.
	SerializeSyncRead bool

	// DynamicCredits enables the credit flow-control scheme of the paper's
	// future-work section: the server advertises its live capacity in every
	// reply and the client throttles to the latest grant (see credits.go).
	DynamicCredits bool

	// CallTimeout arms a per-call timer (client side only): a call whose
	// reply has not arrived within the deadline is retransmitted with the
	// same XID, and the deadline doubles on each attempt (exponential
	// backoff, as the kernel RPC layer's timeo/retrans do). Zero disables
	// timeouts entirely — calls wait forever, the pre-recovery behaviour.
	CallTimeout des.Duration

	// RetryLimit bounds XID-stable retransmissions after the first send.
	// Once exhausted the call fails with ErrTimeout and the connection is
	// left for the recovery layer to replace. Zero means no retransmits
	// (first timeout is fatal) when CallTimeout is set.
	RetryLimit int

	// Shards enables sharded dispatch (server side only): connections hash
	// across this many shards, each owning a completion-polling loop, a
	// shared receive queue, and Workers/Shards worker threads. Zero keeps
	// the legacy one-receive-loop-per-connection path.
	Shards int

	// MaxConns caps live connections at the server (admission control);
	// connections beyond it are rejected with ErrAdmission. Zero means
	// unlimited.
	MaxConns int

	// SRQDepth bounds the receive WQEs pooled in each shard's shared receive
	// queue (default 4096 when Shards > 0); the refill loop wakes at the low
	// watermark SRQDepth/8.
	SRQDepth int

	// Multiplex shares one server-side queue pair per dispatch shard across
	// every client on it (DCT-style): clients attach lightweight endpoints
	// demultiplexed by stream id, so per-client receive state collapses from
	// a full QP context to a slot-table entry and server connection cost is
	// O(shards), not O(connections). Server side it changes admission
	// (TryAttach instead of TryServe) and sub-divides each reply's credit
	// grant by the shard's endpoint count, keeping the fixed-depth SRQ
	// sufficient at any client count. Client side it makes the transport
	// honor those shrinking grants. Implies Shards (default 8).
	Multiplex bool

	// FetchPollDelay is the reply-fetch doorbell poll granularity (client
	// side, ReplyFetch design only): the gap between the server's deposit
	// landing in the reply slot and the client's poll loop observing it.
	// Defaults to 1µs.
	FetchPollDelay des.Duration

	// Affinity pins each dispatch shard's reply processing to the CPU that
	// services its completions (the shard's completion-vector CPU), so a
	// worker wakes warm-cache on the core where the interrupt ran. Without
	// it workers spread round-robin across cores and every completion
	// handoff that crosses CPUs pays the node's MigrationCost — the
	// completion-to-CPU affinity effect of the xprtrdma receive path.
	// Server side, sharded dispatch only.
	Affinity bool

	// TrustStreamClaims disables the server's authenticated-source check on
	// multiplexed receives. By default a message whose claimed stream
	// (SendWQE.Stream, attacker-controlled) differs from the fabric-stamped
	// source endpoint (CQE.SrcStream) is dropped and the real sender
	// penalized; with this set the server believes the claim — the
	// pre-hardening behaviour the adversary experiments measure. Server
	// side, multiplexed mode only.
	TrustStreamClaims bool

	// TrustCredDRC keys the duplicate request cache by the call's AUTH_SYS
	// machine-name credential (forgeable by any client) instead of the
	// transport-authenticated peer node name. Pre-hardening behaviour, kept
	// for the adversary's DRC-forgery measurements. Server side only.
	TrustCredDRC bool

	// QuarantineThreshold terminates a connection once its misbehavior
	// score (rejected DONEs, spoofed stream claims) reaches this value. On
	// a shared mux QP the termination is endpoint-scoped — only the
	// offender dies. Zero disables quarantine. Server side only.
	QuarantineThreshold int
}

// maxBulk is the largest single bulk payload (rtmax/wtmax analogue): what a
// Read-Read server stages for a reply whose size it cannot know in advance.
const maxBulk = 1 << 20

// hasSerial reports whether the serialized-path model is enabled.
func (c *Config) hasSerial() bool {
	return c.SerialBase > 0 || c.SerialPerByteNs > 0 || c.SerializeSyncRead
}

// serialHold returns the serial-stage occupancy for a call moving n bulk
// bytes.
func (c *Config) serialHold(n int) des.Duration {
	return c.SerialBase + des.Duration(float64(n)*c.SerialPerByteNs)
}

func (c *Config) defaults() {
	if c.InlineThreshold <= 0 {
		c.InlineThreshold = 1024
	}
	if c.Credits <= 0 {
		c.Credits = 32
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.ReplyBufPool <= 0 {
		c.ReplyBufPool = c.Credits
	}
	if c.FetchPollDelay <= 0 {
		c.FetchPollDelay = time.Microsecond
	}
	if c.Multiplex && c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > 0 && c.SRQDepth <= 0 {
		c.SRQDepth = 4096
	}
}

// recvBufSize is the posted receive capacity: inline threshold plus header
// room.
func (c *Config) recvBufSize() int { return c.InlineThreshold + 512 }

// rtResult is how a call ends: the response Roundtrip returns, or an error.
type rtResult struct {
	oncrpc.Response
	err error
}

// pending is one call's state on the transport it runs on. A Request from
// NewRequest is allocated with one, as one object (call).
type pending struct {
	t   *ClientTransport
	req *oncrpc.Request

	// done is the current attempt's completion, res what a reply handler
	// completes it with (and Roundtrip returns), reply the first reply on its
	// way to its handler, segs the write and reply chunk lists the call
	// advertises (in segStore until they outgrow it), readStore where the
	// call's read list is built until it outgrows it (a WRITE's data under
	// dynamic registration is one segment): all live in the pending so a
	// call allocates them once, together. Once the call is framed nothing
	// reads the two stores again, and its first reply decodes its read and
	// write lists into them (replyHeader).
	done      des.Event
	res       rtResult
	reply     replyRec
	segs      []Segment
	segStore  [4]Segment
	readStore [1]ReadSeg

	// Destination for reply payload placement.
	destBuf *ibsim.Buffer
	destOff int
	destReg *memreg.Registration // external registration (direct I/O)
	destChk *memreg.Chunk        // arena staging (buffered path)

	// Source registration for call payload.
	srcReg *memreg.Registration
	srcChk *memreg.Chunk

	// Long call / long reply staging.
	longCall *memreg.Chunk
	replyChk *memreg.Chunk

	// Reply-fetch slot (ReplyFetch design): a remotely writable chunk the
	// server deposits the whole reply into, and the poller that fetches it.
	slotChk *memreg.Chunk
	fetch   *fetcher

	// doneWire is where RDMA_DONE is framed. Pendings are never reused, so
	// the bytes stay as posted.
	doneWire [hdrBase]byte

	// aborted is set once Roundtrip has returned: a reply handler still in
	// flight must not fire the (already consumed) done event. handling
	// counts reply handlers currently working on this call; while it is
	// non-zero Roundtrip defers teardown to the last handler, so an RDMA Read
	// in flight never lands in a released staging buffer. The three sit in
	// doneWire's padding, which keeps a call in its size class
	// (TestCallFillsItsSizeClass).
	aborted  bool
	needCopy bool // staging -> caller copy after placement
	handling int16
}

// fetcher is the reply-fetch poller of one call: the doorbell watch on its
// slot, the reply it copied out at the doorbell's instant, and the CPU
// charge for that copy. It is a chain of callbacks, not a process: it waits
// only for hardware (the deposit), for time (the poll delay) and for a CPU
// charge.
type fetcher struct {
	pend    *pending
	slot    Segment
	watch   ibsim.WriteWatch
	fetched []byte
	copying cpu.Charge
}

// doorbellBytes is the reply-fetch doorbell word size: the first 8 bytes of
// every reply slot. The server writes wireLen+1 there (nonzero even for an
// empty reply) after the reply body, in a separate RDMA Write whose
// in-order delivery makes the doorbell's arrival imply the body is placed.
const doorbellBytes = 8

// ClientTransport is the client endpoint of one RPC/RDMA connection. It
// implements oncrpc.Transport and is safe for use by many simulated client
// threads concurrently (the multi-threaded IOzone workloads share one
// mount's transport, as in the paper).
type ClientTransport struct {
	node     *ibsim.Node
	qp       *ibsim.QP
	mgr      *memreg.Manager
	cfg      Config
	inflight *creditGate
	serial   *des.Resource // serialized send path (nil when disabled)
	pending  map[uint32]*pending
	closed   bool

	replyName string // the Read-Read reply handlers' process name

	// DropDone simulates the malicious/malfunctioning client of §4.1 that
	// never sends RDMA_DONE, pinning server reply buffers.
	DropDone bool

	// Stats.
	Calls       int64
	DoneSent    int64
	BulkReads   int64
	Timeouts    int64 // per-call timer expiries
	Retransmits int64 // XID-stable retransmissions sent
	BadHeaders  int64 // received frames and slot deposits dropped because their header did not decode

	counted []*CallCounts // where Timeouts and Retransmits are also added (CountInto)
}

// QP exposes the underlying queue pair (tests and failure injection).
func (t *ClientTransport) QP() *ibsim.QP { return t.qp }

// Config returns the transport's effective configuration (after defaults).
func (t *ClientTransport) Config() Config { return t.cfg }

// Design returns the chunking design the transport runs.
func (t *ClientTransport) Design() Design { return t.cfg.Design }

// Broken reports whether the connection has failed (QP in error state).
func (t *ClientTransport) Broken() bool { return t.closed || t.qp.Err() != nil }

// GrantedCredits returns the client's current flow-control grant.
func (t *ClientTransport) GrantedCredits() int { return t.inflight.Granted() }

// OutstandingCalls returns the in-flight call count.
func (t *ClientTransport) OutstandingCalls() int { return t.inflight.Outstanding() }

var (
	_ oncrpc.Transport = (*ClientTransport)(nil)
	_ oncrpc.Framer    = (*ClientTransport)(nil)
)

// call is a Request and the state of the call it carries, allocated together
// (NewRequest): 760 bytes, which the allocator's header for a large object
// with pointers makes 768, one size class — what the two apart cost, in one
// allocation instead of two.
type call struct {
	pending
	req oncrpc.Request
}

// NewRequest implements oncrpc.Framer. The state in the request serves one
// Roundtrip, on this transport: a replay of the request on a fresh
// connection, or a second Roundtrip of it here, gets a pending of its own.
func (t *ClientTransport) NewRequest() *oncrpc.Request {
	c := &call{pending: pending{t: t}}
	c.req.State = &c.pending
	return &c.req
}

// NewClientTransport builds the client endpoint over an established QP.
// It posts the connection's receive credits and arms the reply receiver.
func NewClientTransport(p *des.Proc, qp *ibsim.QP, mgr *memreg.Manager, cfg Config) *ClientTransport {
	cfg.defaults()
	t := &ClientTransport{
		node:      qp.Node(),
		qp:        qp,
		mgr:       mgr,
		cfg:       cfg,
		inflight:  newCreditGate(qp.Node().Sim(), cfg.Credits),
		pending:   make(map[uint32]*pending),
		replyName: qp.Node().Name() + "/reply",
	}
	if cfg.hasSerial() {
		t.serial = des.NewResource(qp.Node().Sim(), qp.Node().Name()+"/rpcrdma-serial", 1)
	}
	for i := 0; i < cfg.Credits; i++ {
		qp.PostRecv(uint64(i), cfg.recvBufSize())
	}
	// The receiver first waits where a process spawned here would start.
	s := qp.Node().Sim()
	s.AtArg(s.Now(), receive, t)
	return t
}

// Close shuts the transport down.
func (t *ClientTransport) Close() {
	t.closed = true
	t.qp.Close()
}

// bulkBuffer resolves the simulator buffer backing a Bulk, when the caller
// provided one (the direct-I/O and core staging paths).
func bulkBuffer(b *oncrpc.Bulk) (*ibsim.Buffer, int) {
	if b == nil {
		return nil, 0
	}
	if buf, ok := b.Handle.(*ibsim.Buffer); ok {
		return buf, b.Off
	}
	return nil, 0
}

// Room implements oncrpc.Framer: the header req will carry, counting one
// segment for each chunk it advertises — a read chunk for call payload, a
// write chunk for reply payload (Read-Write, Reply-Fetch), a reply chunk for
// a long reply (Read-Write) or the reply slot (Reply-Fetch). frame makes
// room for any further segments registration produces.
func (t *ClientTransport) Room(req *oncrpc.Request) int {
	n := hdrBase
	if req.SendBulk != nil && req.SendBulk.Len > 0 {
		n += readSegSize
	}
	if req.RecvBulk != nil && req.RecvBulk.Len > 0 && t.cfg.Design != ReadRead {
		n += segSize
	}
	if req.LongReplyCap > 0 && t.cfg.Design == ReadWrite || t.cfg.Design == ReplyFetch {
		n += segSize
	}
	return n
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
	tr := t.node.Sim().Tracer()
	rtStart := p.Now()
	t.node.CPU.Work(p, t.cfg.PerOpCPU)
	creditStart := p.Now()
	t.inflight.acquire(p)
	if tr != nil && p.Now() > creditStart {
		tr.Span(int64(creditStart), int64(p.Now()), trace.LayerRPC, trace.KindCreditWait, t.node.Name(), "credit-wait", uint64(req.XID), int64(t.inflight.Granted()))
	}
	defer t.inflight.release()

	pend, _ := req.State.(*pending)
	if pend == nil || pend.t != t || pend.req != nil {
		pend = &pending{t: t}
	}
	pend.req = req
	pend.done.Init(t.node.Sim())
	pend.segs = pend.segStore[:0]
	hdr := &Header{XID: req.XID, Credits: uint32(t.cfg.Credits), Type: MsgRDMA, ReadList: pend.readStore[:0]}

	// The client send path — chunk marshalling, registrations, posting —
	// runs under the transport's serialized section when modelled.
	if t.serial != nil {
		t.serial.Acquire(p, 1)
		bulkBytes := 0
		if req.SendBulk != nil {
			bulkBytes += req.SendBulk.Len
		}
		if req.RecvBulk != nil {
			bulkBytes += req.RecvBulk.Len
		}
		p.Sleep(t.cfg.serialHold(bulkBytes))
	}

	// Call payload (e.g. WRITE data): advertised as a read chunk list for
	// the server to pull, in both designs.
	if req.SendBulk != nil && req.SendBulk.Len > 0 {
		buf, off := bulkBuffer(req.SendBulk)
		n := req.SendBulk.Len
		var reg *memreg.Registration
		if buf != nil {
			pend.srcReg = t.mgr.RegisterExternal(p, buf, off, n, ibsim.AccessRemoteRead)
			reg = pend.srcReg
		} else {
			pend.srcChk = t.mgr.GetPayload(p, n, ibsim.AccessRemoteRead)
			if d := pend.srcChk.Data(); d != nil && req.SendBulk.Data != nil {
				copy(d, req.SendBulk.Data[:n])
			}
			t.node.CPU.Copy(p, n)
			reg = pend.srcChk.Reg
		}
		t.traceExpose(p, req.XID, reg, n)
		hdr.ReadList = appendReadSegs(hdr.ReadList, uint32(len(req.Header)), reg, n)
	}

	// Reply payload placement (e.g. READ data).
	if req.RecvBulk != nil && req.RecvBulk.Len > 0 {
		t.setupRecvPlacement(p, pend, req, hdr)
	}

	// Long reply staging (Read-Write design): the client must advertise a
	// reply chunk big enough for the whole reply message.
	if req.LongReplyCap > 0 && t.cfg.Design == ReadWrite {
		capBytes := req.LongReplyCap + 256
		pend.replyChk = t.mgr.Get(p, capBytes, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite)
		hdr.ReplyChunk = t.expose(p, pend, pend.replyChk.Reg, capBytes)
	}

	// Reply slot (ReplyFetch design): every call pre-registers a remotely
	// writable slot — doorbell word plus reply capacity — and advertises it
	// as the reply chunk. The whole reply (header, inline body, long
	// replies included) is deposited there, so the slot subsumes the
	// Read-Write long-reply chunk. This per-call MR is RFP's structural
	// exposure: it is the *client* that opens its memory, which is exactly
	// what the expose instants below let the invariant checkers price.
	if t.cfg.Design == ReplyFetch {
		capBytes := doorbellBytes + t.cfg.recvBufSize()
		if req.LongReplyCap > 0 && req.LongReplyCap+256 > t.cfg.recvBufSize() {
			capBytes = doorbellBytes + req.LongReplyCap + 256
		}
		pend.slotChk = t.mgr.Get(p, capBytes, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite)
		hdr.ReplyChunk = t.expose(p, pend, pend.slotChk.Reg, capBytes)
		pend.fetch = &fetcher{pend: pend, slot: hdr.ReplyChunk[0]}
		pend.fetch.arm()
	}

	// Long call: an oversized call travels as a position-0 read chunk under
	// RDMA_NOMSG; the server pulls the message body with RDMA Read. Any other
	// call is framed in place, in the room Call kept in front of it.
	var wire []byte
	if len(req.Header) > t.cfg.InlineThreshold {
		pend.longCall = t.mgr.Get(p, len(req.Header), ibsim.AccessRemoteRead)
		if d := pend.longCall.Data(); d != nil {
			copy(d, req.Header)
		} else {
			panic("rpcrdma: long-call staging must be materialized")
		}
		t.node.CPU.Copy(p, len(req.Header))
		hdr.Type = MsgNoMsg
		t.traceExpose(p, req.XID, pend.longCall.Reg, len(req.Header))
		hdr.ReadList = appendReadSegs(hdr.ReadList, 0, pend.longCall.Reg, len(req.Header))
		wire = hdr.Encode()
	} else {
		// A header that outgrew the room slides the call: a replay must copy
		// it from where it now lies.
		wire = hdr.frame(req.Frame(), req.Room)
		req.Header = wire[len(wire)-len(req.Header):]
	}
	t.pending[req.XID] = pend
	attempt := 0
	t.armTimer(&pend.done, t.attemptTimeout(attempt))
	t.send(req.XID, wire)
	if t.serial != nil {
		t.serial.Release(1)
	}

	// Wait for the reply, retransmitting on timer expiry. Registrations and
	// wire bytes are built once above: a retransmission reuses them verbatim
	// (same XID, same chunk advertisements), which is what lets the server's
	// DRC recognise the duplicate. Each attempt gets a fresh done event; a
	// reply racing the timer fires whichever event is current (TryFire), so
	// a late reply to an earlier attempt still completes the call.
	var res *rtResult
	for {
		res = pend.done.Wait(p).(*rtResult)
		if res.err == nil || !errors.Is(res.err, ErrTimeout) {
			break
		}
		t.Timeouts++
		for _, c := range t.counted {
			c.Timeouts++
		}
		if tr != nil {
			tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindTimeout, t.node.Name(), "timeout", uint64(req.XID), int64(attempt))
		}
		if attempt >= t.cfg.RetryLimit || t.Broken() {
			break
		}
		attempt++
		t.Retransmits++
		for _, c := range t.counted {
			c.Retransmits++
		}
		if tr != nil {
			tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindRetransmit, t.node.Name(), "retransmit", uint64(req.XID), int64(attempt))
		}
		// Reset in place: the only other holder of the event was the timer
		// that just expired.
		pend.done.Init(t.node.Sim())
		if t.cfg.Design == ReplyFetch && pend.slotChk != nil {
			// Re-arm the reply slot: zero the doorbell so the retransmitted
			// call (same slot advertisement, same XID) gets a fresh deposit
			// signal. The registration is reused verbatim — the wire bytes
			// must be identical for the server's DRC to recognise the
			// duplicate.
			if d := pend.slotChk.Data(); d != nil {
				clear(d[:doorbellBytes])
			}
		}
		t.armTimer(&pend.done, t.attemptTimeout(attempt))
		t.send(req.XID, wire)
	}
	if res.err != nil && errors.Is(res.err, ErrTimeout) && attempt >= t.cfg.RetryLimit {
		// Every retransmission timed out: surface the typed terminal error
		// rather than a bare timeout, which would read as "retry later".
		res.err = fmt.Errorf("%w: %w (%d attempts)", ErrRetriesExhausted, res.err, attempt+1)
	}
	delete(t.pending, req.XID)
	pend.aborted = true
	// A reply handler still pulling chunks for this call owns the buffer
	// release from here on (see handleReply), so its in-flight RDMA Reads
	// cannot land in recycled staging. The staging copy still happens here,
	// while the chunk is guaranteed alive.
	handlerReleases := pend.handling > 0
	t.stagingCopy(p, pend, res)
	if !handlerReleases {
		t.release(p, pend)
	}
	if tr != nil {
		var errFlag int64
		if res.err != nil {
			errFlag = 1
		}
		tr.Span(int64(rtStart), int64(p.Now()), trace.LayerRPC, trace.KindRPC, t.node.Name(), "rpc", uint64(req.XID), errFlag)
	}
	if res.err != nil {
		return nil, res.err
	}
	return &res.Response, nil
}

// traceExpose records, one instant per segment covering the first n bytes,
// that the call advertised a remotely accessible rkey to the peer. The
// instants are what the MR-exposure invariant (trace.CheckExposureBounds)
// anchors on.
func (t *ClientTransport) traceExpose(p *des.Proc, xid uint32, reg *memreg.Registration, n int) {
	tr := t.node.Sim().Tracer()
	if tr == nil {
		return
	}
	reg.Each(func(s memreg.Segment) {
		if n > 0 {
			tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindExpose, t.node.Name(), "expose", uint64(xid), int64(s.Rkey))
			n -= s.Len
		}
	})
}

// expose advertises the first n bytes of reg for the peer to write into: the
// traceExpose instants, plus the wire form a write list or reply chunk
// carries, kept in the pending after whatever the call advertised before.
func (t *ClientTransport) expose(p *des.Proc, pend *pending, reg *memreg.Registration, n int) []Segment {
	t.traceExpose(p, pend.req.XID, reg, n)
	first := len(pend.segs)
	pend.segs = appendSegs(pend.segs, reg, n)
	return pend.segs[first:len(pend.segs):len(pend.segs)]
}

// send posts wire as an RDMA Send nobody waits for (the reply, or the call
// timer, is what ends the wait), so the request is the fabric's to reuse.
func (t *ClientTransport) send(xid uint32, wire []byte) {
	w := t.qp.GetWQE()
	w.WRID, w.Op, w.Payload = uint64(xid), ibsim.OpSend, wire
	t.qp.PostSend(w)
}

// attemptTimeout returns the deadline for the given attempt: CallTimeout
// doubled per retransmission (exponential backoff), zero when disabled.
func (t *ClientTransport) attemptTimeout(attempt int) des.Duration {
	if t.cfg.CallTimeout <= 0 {
		return 0
	}
	if attempt > 16 {
		attempt = 16 // clamp the shift; deadlines beyond this are academic
	}
	return t.cfg.CallTimeout << attempt
}

// armTimer arms a watchdog that fires done with ErrTimeout at the
// deadline. Losing the race to a real reply makes it a harmless no-op, so
// stale timers from completed attempts never need cancelling.
func (t *ClientTransport) armTimer(done *des.Event, d des.Duration) {
	if d <= 0 {
		return
	}
	s := t.node.Sim()
	s.At(s.Now()+des.Time(d), func() {
		done.TryFire(&rtResult{err: fmt.Errorf("%w after %v", ErrTimeout, d)})
	})
}

// setupRecvPlacement prepares the reply-payload destination per design.
func (t *ClientTransport) setupRecvPlacement(p *des.Proc, pend *pending, req *oncrpc.Request, hdr *Header) {
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
			pend.destReg = t.mgr.RegisterExternal(p, buf, off, n, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite)
			hdr.WriteList = t.expose(p, pend, pend.destReg, n)
		} else {
			// Buffered path: server writes into transport staging; one copy
			// to the caller afterwards.
			pend.destChk = t.mgr.GetPayload(p, n, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite)
			pend.destBuf, pend.destOff = &pend.destChk.Buf, 0
			pend.needCopy = true
			hdr.WriteList = t.expose(p, pend, pend.destChk.Reg, n)
		}
	case ReadRead:
		// Nothing is advertised: the server will expose chunks in its reply
		// and this client pulls them into local staging, then copies out —
		// the Read-Read design has no zero-copy path (§5.1).
		pend.destChk = t.mgr.GetPayload(p, n, ibsim.AccessLocalWrite)
		pend.destBuf, pend.destOff = &pend.destChk.Buf, 0
		pend.needCopy = true
	}
}

// arm starts (or restarts) the reply-fetch poller: it waits for the
// server's deposit to land in the slot (a write watch on the doorbell word),
// models the poll-loop detection delay, charges the copy out of the slot on
// the client CPU, then decodes the deposited reply and completes the call
// exactly as a received Send would. One poller spans every retransmission
// attempt — the slot advertisement never changes.
func (f *fetcher) arm() {
	f.pend.t.node.HCA.WatchWrite(&f.watch, f.slot.Rkey, f.slot.Addr, doorbellBytes, fetchLanded, f)
}

// fetchLanded runs at the instant a Write lands on the doorbell.
func fetchLanded(a any) {
	f := a.(*fetcher)
	pend := f.pend
	t := pend.t
	if pend.aborted || t.closed {
		return
	}
	d := pend.slotChk.Data()
	if d == nil {
		return
	}
	// Read the doorbell at the delivery instant: a retransmission racing
	// this callback may zero it again, but the reply body behind it is never
	// reset, so the captured length stays valid.
	word := int(binary.LittleEndian.Uint64(d[:doorbellBytes]))
	if word == 0 {
		// The reset won the race; watch for the next deposit (the
		// retransmitted call will be answered from the server DRC).
		f.arm()
		return
	}
	wireLen := word - 1
	if wireLen < 0 || doorbellBytes+wireLen > len(d) {
		return // corrupt deposit; the watchdog will retransmit
	}
	f.fetched = append([]byte(nil), d[doorbellBytes:doorbellBytes+wireLen]...)
	// The poll loop notices the doorbell one granularity later and copies
	// the reply out of the slot on the client CPU — the fetch cost RFP
	// shifts from server to client.
	s := t.node.Sim()
	s.AtArg(s.Now()+des.Time(t.cfg.FetchPollDelay), fetchPolled, f)
}

func fetchPolled(a any) {
	f := a.(*fetcher)
	m := f.pend.t.node.CPU
	m.WorkThen(&f.copying, m.CopyCost(len(f.fetched)), fetchCopied, f)
}

func fetchCopied(a any) {
	f := a.(*fetcher)
	pend := f.pend
	t := pend.t
	wire := f.fetched
	f.fetched = nil
	if pend.aborted || t.closed {
		return
	}
	// The reply is handled before this returns, so every deposit can decode
	// into the call's storage.
	hdr := pend.replyHeader()
	body, err := DecodeHeaderInto(&hdr, wire)
	if err != nil {
		t.BadHeaders++
	}
	if err != nil || hdr.XID != pend.req.XID {
		return // undecodable deposit; the watchdog will retransmit
	}
	t.regrant(hdr.Credits)
	t.handleReply(nil, pend, &hdr, body)
}

// stagingCopy moves a buffered reply payload from transport staging to the
// caller's buffer.
func (t *ClientTransport) stagingCopy(p *des.Proc, pend *pending, res *rtResult) {
	if pend.needCopy && res.err == nil && res.BulkLen > 0 && pend.req.RecvBulk != nil {
		// The staging-to-caller copy runs in the client's RPC completion
		// path; under the serialized-stack model it holds the same lock as
		// the send path, which is what keeps the buffered read path well
		// below the direct-I/O one on the Solaris profile.
		if t.serial != nil {
			t.serial.Acquire(p, 1)
		}
		t.node.CPU.Copy(p, res.BulkLen)
		if t.serial != nil {
			t.serial.Release(1)
		}
		if d := pend.destChk.Data(); d != nil && pend.req.RecvBulk.Data != nil {
			copy(pend.req.RecvBulk.Data, d[:min(res.BulkLen, len(d))])
		}
	}
}

// release frees the call's registrations and staging chunks.
func (t *ClientTransport) release(p *des.Proc, pend *pending) {
	if pend.destReg != nil {
		t.mgr.DeregisterExternal(p, pend.destReg)
	}
	if pend.destChk != nil {
		t.mgr.Put(p, pend.destChk)
	}
	if pend.srcReg != nil {
		t.mgr.DeregisterExternal(p, pend.srcReg)
	}
	if pend.srcChk != nil {
		t.mgr.Put(p, pend.srcChk)
	}
	if pend.longCall != nil {
		t.mgr.Put(p, pend.longCall)
	}
	if pend.replyChk != nil {
		t.mgr.Put(p, pend.replyChk)
	}
	if pend.slotChk != nil {
		pend.fetch.watch.Cancel() // no deposit is watched for once the slot goes away
		t.mgr.Put(p, pend.slotChk)
	}
}

// receive arms the client's reply receiver: a callback on the receive CQ
// that takes each completion the CQ hands it, then every one already queued,
// and waits again — woken, and charged an interrupt, exactly as a process
// looping on Wait would be.
func receive(a any) {
	t := a.(*ClientTransport)
	t.qp.RecvCQ.WaitThen(received, t)
}

func received(a any, cqe *ibsim.CQE) {
	if cqe == nil {
		return // the CQ was closed
	}
	t := a.(*ClientTransport)
	for ok := true; ok; cqe, ok = t.qp.RecvCQ.Poll() {
		if cqe.Err != nil {
			t.failAll(fmt.Errorf("%w: %v", ErrTransport, cqe.Err))
			return
		}
		t.receiveReply(cqe)
	}
	t.qp.RecvCQ.WaitThen(received, t)
}

// receiveReply matches one received reply to its pending call and hands it
// to a handler, which performs Read-Read chunk pulls plus RDMA_DONE and
// reconstructs long replies.
func (t *ClientTransport) receiveReply(cqe *ibsim.CQE) {
	t.qp.PostRecv(cqe.WRID, t.cfg.recvBufSize())
	// The call's first reply travels in its pending and decodes its chunk
	// lists into the call's storage. A later one (the answer to a
	// retransmission) can arrive while a Read-Read pull is still reading the
	// first one's, so it gets a record and lists of its own. The call is
	// found by the XID the header begins with.
	var pend *pending
	if len(cqe.Payload) >= 4 {
		pend = t.pending[binary.BigEndian.Uint32(cqe.Payload)]
	}
	first := pend != nil && pend.reply.pend == nil
	var hdr Header
	if first {
		hdr = pend.replyHeader()
	}
	body, err := DecodeHeaderInto(&hdr, cqe.Payload)
	if err != nil {
		t.BadHeaders++ // drop undecodable frames
		return
	}
	t.regrant(hdr.Credits)
	if pend == nil {
		return // duplicate or cancelled
	}
	r := &pend.reply
	if !first {
		r = new(replyRec)
	}
	*r = replyRec{pend: pend, hdr: hdr, body: body}
	s := t.node.Sim()
	if t.cfg.Design != ReadRead {
		// Nothing to pull, so nothing to block on: finish the call from the
		// scheduler loop, at the place in this instant's order where a
		// process spawned here would have started.
		s.AtArg(s.Now(), runReply, r)
		return
	}
	// Handle each Read-Read reply on its own process so one reply's RDMA
	// Reads do not serialize the others — though they all still contend for
	// the connection's ORD slots, which is exactly the bottleneck the paper
	// describes.
	s.Spawn(t.replyName, func(rp *des.Proc) {
		t.handleReply(rp, pend, &r.hdr, body)
	})
}

// replyRec is one decoded reply between the receiver and its handler.
type replyRec struct {
	pend *pending
	hdr  Header
	body []byte
}

func runReply(a any) {
	r := a.(*replyRec)
	r.pend.t.handleReply(nil, r.pend, &r.hdr, r.body)
}

// replyHeader returns a header for a reply to pend to decode into, with the
// call's read and write list stores for its lists.
func (pend *pending) replyHeader() Header {
	return Header{ReadList: pend.readStore[:0], WriteList: pend.segStore[:0]}
}

// regrant installs the flow-control grant carried by a reply header.
func (t *ClientTransport) regrant(credits uint32) {
	if t.cfg.DynamicCredits {
		t.inflight.setGranted(int(credits))
	} else if t.cfg.Multiplex {
		// The grant is this endpoint's sub-account of the shard's pooled
		// receives and shrinks as clients join the shard. Clamp to the
		// receives actually posted here: a grant can also grow back when
		// clients leave, but never past this connection's ring.
		t.inflight.setGranted(min(int(credits), t.cfg.Credits))
	}
}

// handleReply completes pend with a decoded reply. p is the process it runs
// on, or nil on the scheduler loop: only a Read-Read reply pulls, and only a
// pull blocks (or lets Roundtrip return, and hand over the release, midway).
func (t *ClientTransport) handleReply(p *des.Proc, pend *pending, hdr *Header, body []byte) {
	if pend.aborted {
		return // caller gave up; staging buffers already released
	}
	pend.handling++
	var res rtResult
	switch hdr.Type {
	case MsgRDMA:
		res.Header = body
		switch t.cfg.Design {
		case ReadWrite, ReplyFetch:
			for _, s := range hdr.WriteList {
				res.BulkLen += int(s.Length)
			}
			if t.cfg.Design == ReplyFetch {
				// The deposit is consumed; recycle the server's parked staging.
				t.sendDone(pend)
			}
		case ReadRead:
			res.BulkLen, res.err = t.pull(p, pend, hdr, false, pend.destBuf, pend.destOff)
		}
	case MsgNoMsg:
		switch t.cfg.Design {
		case ReadWrite:
			// The long reply was RDMA-Written into our advertised reply
			// chunk before this message was sent; Write-then-Send ordering
			// makes it visible now.
			if pend.replyChk == nil || len(hdr.ReplyChunk) == 0 {
				res.err = fmt.Errorf("%w: unexpected long reply", ErrBadHeader)
				break
			}
			n := 0
			for _, s := range hdr.ReplyChunk {
				n += int(s.Length)
			}
			d := pend.replyChk.Data()
			if n > len(d) {
				res.err = fmt.Errorf("%w: long reply overruns chunk", ErrBadHeader)
				break
			}
			res.Header = append([]byte(nil), d[:n]...)
		case ReadRead:
			// Pull the whole reply message from the server's exposed
			// buffer, then release it with RDMA_DONE.
			res.Header, res.err = t.pullLongReply(p, pend, hdr)
		}
	default:
		res.err = fmt.Errorf("%w: reply type %v", ErrBadHeader, hdr.Type)
	}
	pend.handling--
	if pend.aborted {
		if pend.handling == 0 {
			// Roundtrip returned while we were in flight and deferred the
			// buffer release to us (the staging copy, if any, already ran).
			t.release(p, pend)
		}
		return
	}
	// A retransmission timer may have consumed this attempt's event already;
	// if Roundtrip re-armed, pend.done is the live attempt and this (valid,
	// XID-matched) reply completes it. The first completion wins, so the
	// result it points at is never overwritten.
	if !pend.done.Fired() {
		pend.res = res
		pend.done.Fire(&pend.res)
	}
}

// pull performs a Read-Read pull: RDMA Read each advertised chunk of one
// kind — the reply message itself (position 0, long) or its bulk payload
// (position > 0) — into dst from off, then send RDMA_DONE. It returns the
// bytes pulled.
func (t *ClientTransport) pull(p *des.Proc, pend *pending, hdr *Header, long bool, dst *ibsim.Buffer, off int) (int, error) {
	name, what := "bulk-read", "chunk read"
	if long {
		name, what = "long-reply-read", "long reply read"
	}
	total := 0
	for _, seg := range hdr.ReadList {
		if (seg.Position == 0) != long {
			continue
		}
		n := int(seg.Length)
		if dst == nil || off+n > dst.Size {
			return total, fmt.Errorf("%w: chunk overruns destination", ErrBadHeader)
		}
		t.BulkReads++
		brStart := p.Now()
		wqe := &ibsim.SendWQE{WRID: uint64(hdr.XID), Op: ibsim.OpRead, RemoteKey: seg.Rkey, RemoteAddr: seg.Addr}
		wqe.SetLocal(dst, off, n)
		cqe := t.qp.PostAndWait(p, wqe)
		if tr := t.node.Sim().Tracer(); tr != nil {
			tr.Span(int64(brStart), int64(p.Now()), trace.LayerRPC, trace.KindBulkRead, t.node.Name(), name, uint64(hdr.XID), int64(n))
		}
		// Stop pulling bulk nobody will copy out once the caller has given
		// up; a long reply is pulled to the end and acknowledged regardless.
		if !long && pend.aborted {
			return total, fmt.Errorf("%w: call abandoned mid-pull", ErrClosed)
		}
		if cqe.Err != nil {
			return total, fmt.Errorf("%w: %s: %v", ErrTransport, what, cqe.Err)
		}
		off += n
		total += n
	}
	t.sendDone(pend)
	return total, nil
}

// pullLongReply fetches a Read-Read long reply (position-0 chunks).
func (t *ClientTransport) pullLongReply(p *des.Proc, pend *pending, hdr *Header) ([]byte, error) {
	n := hdr.readBytes(true)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty long reply", ErrBadHeader)
	}
	staging := t.mgr.Get(p, n, ibsim.AccessLocalWrite)
	defer t.mgr.Put(p, staging)
	if _, err := t.pull(p, pend, hdr, true, &staging.Buf, 0); err != nil {
		return nil, err
	}
	return append([]byte(nil), staging.Data()[:n]...), nil
}

// sendDone emits RDMA_DONE for pend's reply unless the transport is
// configured to misbehave. It is framed in the pending: a second DONE (for
// the reply to a retransmission) writes the same bytes again.
func (t *ClientTransport) sendDone(pend *pending) {
	if t.DropDone {
		return
	}
	xid := pend.req.XID
	t.DoneSent++
	if tr := t.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(t.node.Sim().Now()), trace.LayerRPC, trace.KindDone, t.node.Name(), "done-sent", uint64(xid), 0)
	}
	done := Header{XID: xid, Credits: uint32(t.cfg.Credits), Type: MsgDone}
	t.send(xid, done.frame(pend.doneWire[:], hdrBase))
}

// failAll completes every pending call with err. Calls fail in ascending
// XID order so the resulting wakeups are deterministic (map iteration order
// would leak into the event schedule otherwise).
func (t *ClientTransport) failAll(err error) {
	xids := make([]uint32, 0, len(t.pending))
	for xid := range t.pending {
		xids = append(xids, xid)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })
	for _, xid := range xids {
		pend := t.pending[xid]
		delete(t.pending, xid)
		pend.done.TryFire(&rtResult{err: err})
	}
}
