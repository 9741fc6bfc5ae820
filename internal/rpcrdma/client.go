package rpcrdma

import (
	"encoding/binary"
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
	// queue (default 4096 when Shards > 0); the refill chain wakes at the low
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
	// server deposits the whole reply into.
	slotChk *memreg.Chunk

	// rt is the Roundtrip running the call, nil once it returned.
	rt *roundtrip

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

	rts     *des.FreeList[roundtrip] // Roundtrip's states between calls, the simulation's
	pullers *des.FreeList[puller]    // Read-Read reply pulls' states, the simulation's

	// DropDone simulates the malicious/malfunctioning client of §4.1 that
	// never sends RDMA_DONE, pinning server reply buffers.
	DropDone bool

	// Stats.
	Calls        int64
	DoneSent     int64
	BulkReads    int64
	Timeouts     int64 // per-call timer expiries
	Retransmits  int64 // XID-stable retransmissions sent
	BadHeaders   int64 // received frames and slot deposits dropped because their header did not decode
	StrayReplies int64 // replies and deposits that served no call: none was live, or Roundtrip returned before it was read

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
		node:     qp.Node(),
		qp:       qp,
		mgr:      mgr,
		cfg:      cfg,
		inflight: newCreditGate(qp.Node().Sim(), cfg.Credits),
		pending:  make(map[uint32]*pending),
		rts:      des.Pool[roundtrip](qp.Node().Sim()),
		pullers:  des.Pool[puller](qp.Node().Sim()),
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

// traceExpose records, one instant per segment covering the first n bytes,
// that the call advertised a remotely accessible rkey to the peer. The
// instants are what the MR-exposure invariant (trace.CheckExposureBounds)
// anchors on.
func (t *ClientTransport) traceExpose(xid uint32, reg *memreg.Registration, n int) {
	tr := t.node.Sim().Tracer()
	if tr == nil {
		return
	}
	reg.Each(func(s memreg.Segment) {
		if n > 0 {
			tr.Instant(int64(t.node.Sim().Now()), trace.LayerRPC, trace.KindExpose, t.node.Name(), "expose", uint64(xid), int64(s.Rkey))
			n -= s.Len
		}
	})
}

// expose advertises the first n bytes of reg for the peer to write into: the
// traceExpose instants, plus the wire form a write list or reply chunk
// carries, kept in the pending after whatever the call advertised before.
func (t *ClientTransport) expose(pend *pending, reg *memreg.Registration, n int) []Segment {
	t.traceExpose(pend.req.XID, reg, n)
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

// armTimer arms a watchdog that fires the call's done event with
// ErrTimeout at the deadline. Losing the race to a real reply makes it a
// harmless no-op, so stale timers from completed attempts never need
// cancelling.
func (t *ClientTransport) armTimer(pend *pending, d des.Duration) {
	if d <= 0 {
		return
	}
	s := t.node.Sim()
	s.At(s.Now()+des.Time(d), func() {
		if pend.done.TryFire(&rtResult{err: fmt.Errorf("%w after %v", ErrTimeout, d)}) {
			pend.woken()
		}
	})
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
	if t.closed {
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
	if pend.aborted {
		if word != 0 {
			t.stray(pend, pend.req.XID, true) // a deposit after Roundtrip returned
		}
		return
	}
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
	if t.closed {
		return
	}
	if pend.aborted {
		t.stray(pend, pend.req.XID, true) // Roundtrip returned while the deposit was copied
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
	t.handleReply(pend, &hdr, body)
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
// to its handler, which performs Read-Read chunk pulls plus RDMA_DONE and
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
		// The answer to a retransmission of a call that ended, or to a call
		// that was abandoned.
		t.stray(nil, hdr.XID, t.parks(&hdr))
		return
	}
	r := &pend.reply
	if !first {
		r = new(replyRec)
	}
	*r = replyRec{pend: pend, hdr: hdr, body: body}
	// The handler runs on the scheduler loop, at the place in this instant's
	// order where a process spawned here would have started. A Read-Read
	// reply's pull is a chain of its own (puller), so one reply's RDMA Reads
	// do not serialize the others' — though they all still contend for the
	// connection's ORD slots, which is exactly the bottleneck the paper
	// describes.
	s := t.node.Sim()
	s.AtArg(s.Now(), runReply, r)
}

// replyRec is one decoded reply between the receiver and its handler.
type replyRec struct {
	pend *pending
	hdr  Header
	body []byte
}

func runReply(a any) {
	r := a.(*replyRec)
	r.pend.t.handleReply(r.pend, &r.hdr, r.body)
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

// handleReply completes pend with a decoded reply. A Read-Read reply hands
// the rest to its pull chain, which lets Roundtrip return, and hand over the
// release, midway.
func (t *ClientTransport) handleReply(pend *pending, hdr *Header, body []byte) {
	if pend.aborted {
		t.stray(pend, hdr.XID, t.parks(hdr)) // caller gave up; staging buffers already released
		return
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
			u := t.newPuller(pend, hdr, false)
			u.res.Header, u.dst, u.off = body, pend.destBuf, pend.destOff
			u.pull()
			return
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
			n := hdr.readBytes(true)
			if n == 0 {
				res.err = fmt.Errorf("%w: empty long reply", ErrBadHeader)
				break
			}
			u := t.newPuller(pend, hdr, true)
			t.mgr.GetThen(&u.down.op, n, ibsim.AccessLocalWrite, stagedLongReply, u)
			return
		}
	default:
		res.err = fmt.Errorf("%w: reply type %v", ErrBadHeader, hdr.Type)
	}
	pend.handled(&res)
}

// handled ends a handler's work on pend with res, and reports whether the
// handler releases the call's buffers: Roundtrip returned while it was in
// flight, and it is the last handler.
func (pend *pending) handled(res *rtResult) (release bool) {
	pend.handling--
	if pend.aborted {
		pend.t.StrayReplies++ // a Read-Read pull Roundtrip returned from
		return pend.handling == 0
	}
	// A retransmission timer may have consumed this attempt's event already;
	// if Roundtrip re-armed, pend.done is the live attempt and this (valid,
	// XID-matched) reply completes it. The first completion wins, so the
	// result it points at is never overwritten.
	if !pend.done.Fired() {
		pend.res = *res
		pend.done.Fire(&pend.res)
		pend.woken()
	}
	return false
}

// A Read-Read reply's handling — an RDMA Read of each chunk it advertises,
// one at a time, with the completion interrupt of each that was not complete
// at its post; a long reply's staging; RDMA_DONE; the call's completion —
// waits only for the HCA, a CPU and registration. So it is a chain of
// callbacks on the scheduler loop too, each step taken at the instant and in
// the place in the event order where a process running the handler would
// take it, with its state in a puller the simulation reuses.
//
//	stagedLongReply  a long reply's staging, then pull into it
//	pull             post the next Read (readDone is its completion)
//	readWoken        the interrupt of a Read that blocked
//	read             its span; stop on an abandoned call or an error
//	pulled           RDMA_DONE, however the pull ended; a long reply's copy
//	                 out of the staging, and the staging put back
//	pullEnd          complete the call, or release an abandoned one's buffers

// puller is the state of one Read-Read reply's pull chain.
type puller struct {
	t    *ClientTransport
	pend *pending
	hdr  Header // the reply's; its lists are the call's or the reply record's
	res  rtResult

	long       bool          // pulling a long reply (position 0), not bulk
	dst        *ibsim.Buffer // where the chunks land, from off
	off, total int
	seg        int      // the read list entry the pull is at
	start      des.Time // when the Read in flight was posted
	waiting    bool     // for the Read in flight: its completion wakes the chain
	completed  bool     // the Read in flight completed, with readErr
	readErr    error
	wqe        ibsim.SendWQE
	intr       cpu.Charge
	staging    *memreg.Chunk
	down       teardown // its op stages a long reply; the teardown is an abandoned call's release
}

// newPuller returns a puller for a reply to pend.
func (t *ClientTransport) newPuller(pend *pending, hdr *Header, long bool) *puller {
	u := t.pullers.Get()
	u.t, u.pend, u.hdr, u.long = t, pend, *hdr, long
	return u
}

// pull reads the next chunk of the reply of its kind — the reply message
// itself (position 0, long) or its bulk payload (position > 0) — into dst
// from off; u.total counts the bytes pulled. Reads stay one at a time, as a
// process posting each and waiting for it would take them.
func (u *puller) pull() {
	t, hdr := u.t, &u.hdr
	for ; u.seg < len(hdr.ReadList); u.seg++ {
		seg := hdr.ReadList[u.seg]
		if (seg.Position == 0) != u.long {
			continue
		}
		n := int(seg.Length)
		if u.dst == nil || u.off+n > u.dst.Size {
			u.pulled(fmt.Errorf("%w: chunk overruns destination", ErrBadHeader))
			return
		}
		t.BulkReads++
		u.start = t.node.Sim().Now()
		u.wqe = ibsim.SendWQE{WRID: uint64(hdr.XID), Op: ibsim.OpRead, RemoteKey: seg.Rkey, RemoteAddr: seg.Addr,
			OnDone: readDone, OnDoneArg: u}
		u.wqe.SetLocal(u.dst, u.off, n)
		u.completed = false
		t.qp.PostSend(&u.wqe)
		if !u.completed {
			u.waiting = true
			return
		}
		u.read() // completed at its post (a flushed QP): nothing blocked, no interrupt
		return
	}
	u.pulled(nil)
}

// readDone runs where the fabric completes the Read, and wakes the chain
// where the resume of a process waiting for it would go.
func readDone(a any, c *ibsim.CQE) {
	u := a.(*puller)
	u.completed, u.readErr = true, c.Err
	if u.waiting {
		u.waiting = false
		s := u.t.node.Sim()
		s.AtArg(s.Now(), readWoken, u)
	}
}

func readWoken(a any) {
	u := a.(*puller)
	u.t.node.CPU.InterruptThen(&u.intr, readInterrupted, u)
}

func readInterrupted(a any) { a.(*puller).read() }

// read ends the Read in flight and moves on to the next chunk.
func (u *puller) read() {
	t, n := u.t, u.wqe.Size()
	name, what := "bulk-read", "chunk read"
	if u.long {
		name, what = "long-reply-read", "long reply read"
	}
	if tr := t.node.Sim().Tracer(); tr != nil {
		tr.Span(int64(u.start), int64(t.node.Sim().Now()), trace.LayerRPC, trace.KindBulkRead, t.node.Name(), name, uint64(u.hdr.XID), int64(n))
	}
	// Stop pulling bulk nobody will copy out once the caller has given up; a
	// long reply is pulled to the end and acknowledged regardless.
	if !u.long && u.pend.aborted {
		u.pulled(fmt.Errorf("%w: call abandoned mid-pull", ErrClosed))
		return
	}
	if u.readErr != nil {
		u.pulled(fmt.Errorf("%w: %s: %v", ErrTransport, what, u.readErr))
		return
	}
	u.off += n
	u.total += n
	u.seg++
	u.pull()
}

// pulled ends the pull with err. Whatever ended it — every chunk read, an
// abandoned call, a chunk the destination cannot hold — the client reads the
// reply no more, so RDMA_DONE releases it at the server; unless a Read failed
// the connection, whose death releases it there.
func (u *puller) pulled(err error) {
	if err == nil || u.t.qp.Err() == nil {
		u.t.sendDone(u.pend)
	}
	u.res.err, u.readErr = err, nil
	if !u.long {
		u.res.BulkLen = u.total
		pullEnd(u)
		return
	}
	if err == nil {
		u.res.Header = append([]byte(nil), u.staging.Data()[:u.total]...)
	}
	u.t.mgr.PutThen(&u.down.op, u.staging, pullerThen, u)
}

func stagedLongReply(a any) {
	u := a.(*puller)
	u.staging = u.down.op.Chunk()
	u.dst = &u.staging.Buf
	u.pull()
}

func pullerThen(a any) { pullEnd(a.(*puller)) }

// pullEnd completes the call with what the pull got; the last handler of a
// call Roundtrip has returned from releases its buffers (the staging copy,
// if any, already ran).
func pullEnd(u *puller) {
	if u.pend.handled(&u.res) {
		// down's op served the long reply's staging and is done; the
		// teardown's own fields are still zero.
		u.down.release(u.t, u.pend, nil, pullerFree, u)
		return
	}
	pullerFree(u)
}

func pullerFree(a any) {
	u := a.(*puller)
	pullers := u.t.pullers
	*u = puller{}
	pullers.Put(u)
}

// parks reports whether the server keeps a reply with this header parked
// until RDMA_DONE: a Read-Read reply that exposes chunks. (Every Reply-Fetch
// deposit parks, but a deposit is not a received reply.)
func (t *ClientTransport) parks(hdr *Header) bool {
	return t.cfg.Design == ReadRead && len(hdr.ReadList) > 0
}

// stray counts a reply to xid that serves no call — it came for no live
// call, or the call's Roundtrip returned before the reply was read — and,
// when the server keeps it parked, releases it with RDMA_DONE, framed in
// pend when there is one.
func (t *ClientTransport) stray(pend *pending, xid uint32, parked bool) {
	t.StrayReplies++
	switch {
	case !parked:
	case pend != nil:
		t.sendDoneFor(xid, pend.doneWire[:])
	default:
		t.sendDoneFor(xid, make([]byte, hdrBase))
	}
}

// sendDone emits RDMA_DONE for pend's reply. It is framed in the pending: a
// second DONE (for the reply to a retransmission) writes the same bytes
// again.
func (t *ClientTransport) sendDone(pend *pending) { t.sendDoneFor(pend.req.XID, pend.doneWire[:]) }

// sendDoneFor emits RDMA_DONE for xid, framed in wire (hdrBase bytes, the
// fabric's from here on), unless the transport is configured to misbehave.
func (t *ClientTransport) sendDoneFor(xid uint32, wire []byte) {
	if t.DropDone {
		return
	}
	t.DoneSent++
	if tr := t.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(t.node.Sim().Now()), trace.LayerRPC, trace.KindDone, t.node.Name(), "done-sent", uint64(xid), 0)
	}
	done := Header{XID: xid, Credits: uint32(t.cfg.Credits), Type: MsgDone}
	t.send(xid, done.frame(wire, hdrBase))
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
		if pend.done.TryFire(&rtResult{err: err}) {
			pend.woken()
		}
	}
}
