package rpcrdma

import (
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/trace"
)

// connXID keys per-connection transaction state.
type connXID struct {
	conn *serverConn
	xid  uint32
}

// parkedReply holds server resources pinned until the client's RDMA_DONE
// (Read-Read and Reply-Fetch). Under Read-Read the chunks stay registered —
// and remotely readable — for as long as the client withholds the DONE,
// which is the §4.1 resource-pinning and exposure vulnerability. It is a map
// value holding at most two chunks, the most a reply parks: its bulk staging,
// and its long-reply chunk (Read-Read) or deposit (Reply-Fetch).
type parkedReply struct {
	chunks [2]*memreg.Chunk
	n      int
}

// add parks one more chunk with the reply.
func (r *parkedReply) add(c *memreg.Chunk) {
	if r.n == len(r.chunks) {
		panic("rpcrdma: a reply parks at most two chunks")
	}
	r.chunks[r.n] = c
	r.n++
}

// serverTask is one received call from deliver to the bottom of the worker
// loop, where its shard takes it back for reuse. It holds the decoded header
// by value and stays small: a burst queues one per call.
type serverTask struct {
	conn *serverConn
	hdr  Header
	body []byte
}

// serverConn is one client connection at the server.
type serverConn struct {
	srv *ServerTransport
	qp  *ibsim.QP
	id  uint64 // connection ordinal; XIDs repeat across clients, conn.id<<32|xid does not

	// stream is the connection's demultiplex id on its shard's shared QP
	// (multiplexed mode); zero on a dedicated-QP connection. Everything the
	// server sends toward this client must be stamped with it.
	stream uint32

	// peerName is the transport-authenticated node name behind this
	// connection, recorded at accept time. The DRC keys replay state by it
	// (unless Config.TrustCredDRC), so a forged AUTH_SYS machine credential
	// cannot collide with another client's replay keys.
	peerName string

	// misbehavior scores protocol violations attributed to this connection
	// (rejected DONEs, spoofed stream claims); quarantined latches once the
	// score crosses Config.QuarantineThreshold and the connection is
	// terminated, so the Quarantines stat counts each offender once.
	misbehavior int
	quarantined bool

	// dead marks the connection's lifecycle state: once set (by connDead)
	// the transport drops this connection's queued tasks instead of serving
	// them and releases replies instead of parking them — no reply can ever
	// be delivered and no RDMA_DONE can ever arrive.
	dead bool

	// parkedOrder records the XIDs parked for this connection, in park
	// order, so teardown releases them deterministically (iterating the
	// shared parked map would leak map ordering into the event schedule).
	// releaseParked prunes entries as DONEs arrive, keeping the invariant
	// len(parkedOrder) == parked.
	parkedOrder []uint32

	// Per-connection reply-buffer accounting, used when dynamic credits
	// are enabled: a client that pins replies exhausts only its own pool
	// and only its own grant.
	parked     int
	replySlots *des.Resource

	// shard is the dispatch group this connection is assigned to: one of the
	// transport's shards, or its single per-connection group.
	shard *serverShard

	// loop is the connection's own receive loop on the per-connection
	// receive path; nil on a shard, whose loop serves all its connections.
	loop *recvLoop
}

// slots is the reply-buffer pool this connection's parked replies draw from:
// its own under dynamic credits, else the transport-wide pool.
func (c *serverConn) slots() *des.Resource {
	if c.replySlots != nil {
		return c.replySlots
	}
	return c.srv.replySlots
}

// post sends a work request toward this connection's client, stamping the
// stream id that selects its endpoint on a shared QP (a no-op stamp on
// dedicated connections, where stream is 0).
func (c *serverConn) post(w *ibsim.SendWQE) {
	w.Stream = c.stream
	c.qp.PostSend(w)
}

// write posts an RDMA Write of src[off, off+n) that nobody waits for: what
// follows it on the connection (the reply Send, the deposit's doorbell, the
// client's RDMA_DONE) says it is placed, so the request is the fabric's to
// reuse.
func (c *serverConn) write(wrid uint64, src *ibsim.Buffer, off, n int, rkey uint32, addr uint64) {
	w := c.qp.GetWQE()
	w.WRID, w.Op, w.RemoteKey, w.RemoteAddr = wrid, ibsim.OpWrite, rkey, addr
	w.SetLocal(src, off, n)
	c.post(w)
}

// pruneParkedOrder removes the first occurrence of xid from the park-order
// slice. Without the prune the slice grows for the life of a Read-Read
// connection: releaseParked used to delete the map entry and decrement the
// counter but leave the XID in place, so a long-lived connection leaked one
// slice slot per parked reply.
func (c *serverConn) pruneParkedOrder(xid uint32) {
	for i, v := range c.parkedOrder {
		if v == xid {
			c.parkedOrder = append(c.parkedOrder[:i], c.parkedOrder[i+1:]...)
			return
		}
	}
}

// ServerTransport is the server endpoint of the RPC/RDMA transport: it
// accepts connections, decodes the header, pulls read chunks, dispatches to
// the RPC layer through a worker pool (the paper's server task queue,
// Figure 1), and sends replies per the configured design.
type ServerTransport struct {
	node       *ibsim.Node
	mgr        *memreg.Manager
	cfg        Config
	dispatcher *oncrpc.Dispatcher
	parked     map[connXID]parkedReply
	replySlots *des.Resource // Read-Read reply-buffer pool
	serial     *des.Resource // serialized send/receive path (nil when disabled)
	closed     bool
	draining   bool // Shutdown in progress: shards must not re-arm shared QPs
	connSeq    uint64
	workerSeq  int // round-robin worker CPU placement when affinity is off

	// Sharded dispatch (cfg.Shards > 0): connections hash across shards,
	// each with its own CQ-polling loop, SRQ, and worker slice. Otherwise
	// every connection joins legacy, the one group of the per-connection
	// receive path: the whole worker pool behind one queue, fed by a private
	// receive ring and loop per connection.
	shards []*serverShard
	legacy *serverShard

	// Admission control.
	conns     []*serverConn // live connections, in accept order
	liveConns int           // accepted minus dead

	// Stats.
	ConnsAccepted int64
	ConnsRejected int64
	Requests      int64
	LongCalls     int64
	LongReplies   int64
	BulkReads     int64
	BulkWrites    int64
	DoneRecv      int64
	ShortWrites   int64 // replies whose bulk exceeded the client's chunk capacity
	TasksDropped  int64 // messages discarded because their connection died or the server shut down
	Deposits      int64 // reply-fetch replies deposited into client slots (no Send)
	BadHeaders    int64 // received frames dropped because their header did not decode
	// RepliesDeclined counts replies not kept parked because another for the
	// same (connection, XID) is: a duplicate call's Read-Read reply while the
	// first is parked (dropped unsent), a Reply-Fetch deposit the duplicate's
	// replaces. Only a hostile peer repeats an XID on one connection.
	RepliesDeclined int64

	// Hardening stats (see the adversary engine).
	DoneRejected     int64 // DONEs naming no parked reply on the sender's connection
	SpoofDrops       int64 // mux receives dropped for a forged stream claim
	CrossClientFrees int64 // parked replies freed by a DONE from a different endpoint (trust mode only)
	Quarantines      int64 // connections terminated by misbehavior scoring
}

// NewServerTransport creates the server engine and starts its worker pool.
func NewServerTransport(node *ibsim.Node, mgr *memreg.Manager, dispatcher *oncrpc.Dispatcher, cfg Config) *ServerTransport {
	cfg.defaults()
	s := &ServerTransport{
		node:       node,
		mgr:        mgr,
		cfg:        cfg,
		dispatcher: dispatcher,
		parked:     make(map[connXID]parkedReply),
		replySlots: des.NewResource(node.Sim(), node.Name()+"/rpcrdma-replypool", cfg.ReplyBufPool),
	}
	if cfg.hasSerial() {
		s.serial = des.NewResource(node.Sim(), node.Name()+"/rpcrdma-serial", 1)
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newServerShard(s, i))
	}
	if cfg.Shards == 0 {
		s.legacy = newLegacyGroup(s)
	}
	return s
}

// ParkedReplies returns the number of reply buffers awaiting RDMA_DONE.
func (s *ServerTransport) ParkedReplies() int { return len(s.parked) }

// Close stops accepting work.
func (s *ServerTransport) Close() {
	if !s.closed {
		s.closed = true
		if s.legacy != nil {
			s.legacy.workQ.Close()
		}
		for _, sh := range s.shards {
			sh.workQ.Close()
		}
	}
}

// LiveConns returns the number of accepted, not-yet-dead connections.
func (s *ServerTransport) LiveConns() int { return s.liveConns }

// SRQAvailTotal returns free receive slots summed across shard SRQs, zero
// for unsharded designs (per-connection receive rings). Allocation-free:
// telemetry probes call it every sample tick.
func (s *ServerTransport) SRQAvailTotal() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.srq.Avail()
	}
	return n
}

// SRQPostedTotal returns cumulative successful SRQ PostRecv calls across
// shards.
func (s *ServerTransport) SRQPostedTotal() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.srq.Posted
	}
	return n
}

// SRQStarvedTotal returns cumulative SRQ takes that found the pool empty
// (RNR at the QP) across shards.
func (s *ServerTransport) SRQStarvedTotal() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.srq.Starved
	}
	return n
}

// MuxEndpointsTotal returns live multiplexed endpoints summed across shards
// (zero when clients get dedicated QPs).
func (s *ServerTransport) MuxEndpointsTotal() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.eps)
	}
	return n
}

// ShardEndpoints returns live endpoints (multiplexed mode) or connections
// (dedicated QPs) attached to shard i, zero when i is out of range.
func (s *ServerTransport) ShardEndpoints(i int) int {
	if i < 0 || i >= len(s.shards) {
		return 0
	}
	return s.shards[i].nconns
}

// Shutdown models the transport side of a server crash at the current
// virtual instant: every live connection's QP is terminated (peers observe
// the death on their own queue pairs and reconnect through recovery), every
// parked reply is released via the usual connection-death path, the work
// queues close, and the shard CQs are destroyed so flush completions still
// in flight when the crash hit are dropped rather than delivered to a dead
// server. The transport object is unusable afterwards; a restart builds a
// fresh one.
func (s *ServerTransport) Shutdown(p *des.Proc) {
	if s.closed {
		return
	}
	s.draining = true
	// connDead prunes s.conns, so walk a snapshot.
	r := &release{}
	for _, conn := range slices.Clone(s.conns) {
		if !conn.dead && conn.qp.Err() == nil {
			// On a multiplexed shard the first connection's Terminate kills
			// the shared QP — and with it every sibling endpoint; the rest of
			// the loop sees the QP already in error and just runs teardown.
			conn.qp.Terminate(fmt.Errorf("%w: server crashed", ErrClosed))
		}
		r.connDead(s, conn, des.Resumer, p)
		p.Suspend()
	}
	s.Close()
	for _, sh := range s.shards {
		sh.cq.Close()
	}
}

// admit is the one admission decision: a crashed (or closing) server refuses
// like a host with no listener, a full one with ErrAdmission; dialers observe
// either and back off through the same redial machinery. An admitted
// connection gets its ordinal and its dispatch group here; the caller wires
// it to a QP or endpoint and then accepts it.
func (s *ServerTransport) admit(peerName string) (*serverConn, error) {
	var err error
	switch {
	case s.closed || s.draining:
		err = fmt.Errorf("%w: server not serving", ErrClosed)
	case s.cfg.MaxConns > 0 && s.liveConns >= s.cfg.MaxConns:
		err = fmt.Errorf("%w: %d live connections", ErrAdmission, s.liveConns)
	}
	if err != nil {
		s.ConnsRejected++
		return nil, err
	}
	s.connSeq++
	conn := &serverConn{srv: s, id: s.connSeq, peerName: peerName, shard: s.legacy}
	if len(s.shards) > 0 {
		conn.shard = s.shards[int(conn.id)%len(s.shards)]
	}
	return conn, nil
}

// accept enters a wired connection into the live set.
func (s *ServerTransport) accept(conn *serverConn, qp *ibsim.QP, stream uint32) {
	conn.qp, conn.stream = qp, stream
	s.liveConns++
	s.ConnsAccepted++
	if s.cfg.DynamicCredits {
		conn.replySlots = des.NewResource(s.node.Sim(), s.node.Name()+"/conn-replypool", s.cfg.ReplyBufPool)
	}
	s.conns = append(s.conns, conn)
	conn.shard.nconns++
}

// TryServe attaches an accepted connection and reports whether admission
// control let it in. A rejected QP is terminated with the refusal — the
// peer observes the error on its own queue pair and is expected to back
// off and redial. Accepted connections either join a dispatch shard
// (sharded mode) or get the legacy private receive ring plus a dedicated
// receive loop.
func (s *ServerTransport) TryServe(qp *ibsim.QP) bool {
	peerName := ""
	if peer := qp.Peer(); peer != nil {
		peerName = peer.Node().Name()
	}
	conn, err := s.admit(peerName)
	if err != nil {
		qp.Terminate(err)
		return false
	}
	s.accept(conn, qp, 0)
	sh := conn.shard
	if sh.srq != nil {
		// The QP's completions land on the shard CQ and its receives draw
		// from the shard SRQ.
		qp.SetRecvCQ(sh.cq)
		qp.AttachSRQ(sh.srq)
		sh.conns[qp] = conn
		return true
	}
	for i := 0; i < s.cfg.Credits; i++ {
		qp.PostRecv(uint64(i), s.cfg.recvBufSize())
	}
	// The connection's receive loop first waits where a process spawned here
	// would start.
	conn.loop = &recvLoop{sh: sh, cq: qp.RecvCQ, conn: conn}
	sim := s.node.Sim()
	sim.AtArg(sim.Now(), recvWait, conn.loop)
	return true
}

// TryAttach admits a multiplexed client: instead of a dedicated QP pair the
// client gets a lightweight endpoint on one shard's shared QP, and the
// server-side cost of the connection is a slot-table entry plus bookkeeping.
// It returns the client-side endpoint QP, the initial credit grant (the
// endpoint's sub-account of the shard's pooled receives — the client should
// size its transport to it), and whether admission let the client in.
func (s *ServerTransport) TryAttach(client *ibsim.Node) (*ibsim.QP, int, bool) {
	if !s.cfg.Multiplex || len(s.shards) == 0 {
		panic("rpcrdma: TryAttach needs Config.Multiplex")
	}
	conn, err := s.admit(client.Name())
	if err != nil {
		return nil, 0, false
	}
	sh := conn.shard
	ep, err := s.node.Fabric().AttachEndpoint(client, sh.muxQP, ibsim.QPConfig{})
	if err != nil {
		// Shared QP down (mid-crash) or slot table exhausted: refuse like an
		// admission rejection; the dialer backs off and redials.
		s.ConnsRejected++
		return nil, 0, false
	}
	s.accept(conn, sh.muxQP, ep.Stream())
	sh.eps[conn.stream] = conn
	return ep, int(s.advertiseCredits(conn)), true
}

// migrateThen charges the completion-to-CPU affinity cost of resuming a task
// on worker CPU wcpu after a completion serviced on its shard's completion
// CPU, then calls fn(arg). Legacy (unsharded) workers pass wcpu -1: no
// placement is modelled.
func (s *ServerTransport) migrateThen(c *cpu.Charge, conn *serverConn, wcpu int, fn func(any), arg any) {
	if wcpu < 0 {
		fn(arg)
		return
	}
	s.node.CPU.MigrateThen(c, conn.shard.cpuID, wcpu, fn, arg)
}

// traceKey builds the trace pairing id of one (connection, XID) exchange.
func (c *serverConn) traceKey(xid uint32) uint64 { return c.id<<32 | uint64(xid) }

// offender resolves the connection to blame for a bad message: the
// authenticated source endpoint when the message arrived on a shared QP
// under a forged claim, else the connection it arrived on.
func (s *ServerTransport) offender(conn *serverConn, src uint32) *serverConn {
	if src != 0 && src != conn.stream {
		if c := conn.shard.eps[src]; c != nil {
			return c
		}
	}
	return conn
}

// penalize bumps a connection's misbehavior score and, once it crosses the
// configured threshold, terminates the offender — endpoint-scoped on a
// shared QP, so quarantining an attacker never takes innocent endpoints
// down with it.
func (s *ServerTransport) penalize(conn *serverConn) {
	if conn == nil {
		return
	}
	conn.misbehavior++
	if s.cfg.QuarantineThreshold <= 0 || conn.quarantined || conn.dead ||
		conn.misbehavior < s.cfg.QuarantineThreshold {
		return
	}
	conn.quarantined = true
	s.Quarantines++
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindDone, s.node.Name(), "quarantine", conn.traceKey(0), int64(conn.misbehavior))
	}
	if conn.stream != 0 {
		conn.qp.TerminateEndpoint(conn.stream, ErrQuarantined)
	} else {
		conn.qp.Terminate(ErrQuarantined)
	}
}

// replyAccess is the access mode of reply staging buffers: the Read-Write
// design keeps them local-only (never exposed); the Read-Read design must
// grant remote read — the vulnerability.
func (s *ServerTransport) replyAccess() ibsim.Access {
	if s.cfg.Design == ReadRead {
		return ibsim.AccessLocalWrite | ibsim.AccessRemoteRead
	}
	return ibsim.AccessLocalWrite
}

// pushBulk RDMA-Writes n bytes from src into the peer segments, returning
// the segments annotated with actual lengths plus the residual byte count
// that did not fit in the peer's advertised capacity (0 on a full push).
// Writes are unsignaled except implicitly through the following send
// (Write-then-Send ordering). The annotated list is appended to the thread's
// storage, after what an earlier push of the same reply left there.
func (s *ServerTransport) pushBulk(w *nfsd, conn *serverConn, src *ibsim.Buffer, n int, dst []Segment) ([]Segment, int) {
	out, first := w.pushed, len(w.pushed)
	off := 0
	for _, seg := range dst {
		if n <= 0 {
			break
		}
		l := int(seg.Length)
		if l > n {
			l = n
		}
		s.BulkWrites++
		if tr := s.node.Sim().Tracer(); tr != nil {
			tr.Instant(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindBulkWrite, s.node.Name(), "bulk-write", uint64(seg.Rkey), int64(l))
		}
		conn.write(0, src, off, l, seg.Rkey, seg.Addr)
		out = append(out, Segment{Rkey: seg.Rkey, Length: uint32(l), Addr: seg.Addr})
		off += l
		n -= l
	}
	w.pushed = out
	return out[first:], n
}

// advertiseCredits computes the flow-control grant carried in reply
// headers: the static depth, or — under dynamic credits — the depth minus
// the reply buffers THIS connection still has pinned awaiting RDMA_DONE,
// so a client that hoards buffers throttles only itself.
// Under multiplexing the grant is additionally capped by the connection's
// sub-account of its shard's pooled receives: SRQDepth split across the
// shard's endpoints (never below 1). That sub-accounting is what lets the
// SRQ stay at a fixed depth while client count grows — aggregate in-flight
// traffic per shard stays bounded by the pool, with no per-client rings.
func (s *ServerTransport) advertiseCredits(conn *serverConn) uint32 {
	free := s.cfg.Credits
	if s.cfg.DynamicCredits {
		free = s.cfg.Credits - conn.parked
		if free < 1 {
			free = 1
		}
	}
	if s.cfg.Multiplex && conn.stream != 0 {
		share := 1
		if conn.shard.nconns > 0 {
			share = s.cfg.SRQDepth / conn.shard.nconns
		}
		if share < 1 {
			share = 1
		}
		if free > share {
			free = share
		}
	}
	return uint32(free)
}

// shortWrite counts, and records as a trace instant, a reply truncated by
// residual bytes.
func (s *ServerTransport) shortWrite(conn *serverConn, xid uint32, residual int) {
	s.ShortWrites++
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindShortWrite, s.node.Name(), "short-write",
			conn.traceKey(xid), int64(residual))
	}
}

// RecvStateBytes models the server's receive-side control memory: what a
// driver would pin to be able to accept traffic from the current client
// population. Dedicated connections each cost a QP context plus a private
// receive ring (Credits buffers); sharded dispatch replaces the rings with
// each shard's SRQ (counted at its allocated high-water) but still pays one
// QP context per connection; multiplexing collapses even that to one shared
// QP context plus a slot entry per endpoint — O(shards), not O(connections).
func (s *ServerTransport) RecvStateBytes() int64 {
	var n int64
	if len(s.shards) > 0 {
		for _, sh := range s.shards {
			n += sh.srq.CommittedBytes()
			if sh.muxQP != nil {
				n += sh.muxQP.RecvStateBytes()
			}
		}
		if !s.cfg.Multiplex {
			n += int64(s.liveConns) * ibsim.QPContextBytes
		}
		return n
	}
	n = int64(s.liveConns) * (ibsim.QPContextBytes + int64(s.cfg.Credits*s.cfg.recvBufSize()))
	return n
}

// release is a chain that puts parked chunks back and gives their reply
// slots up: for an RDMA_DONE, a dead connection, a retired deposit, a reply
// nobody can receive. It lives where its chain runs — a receive loop, a
// server thread — and is reused: zero between chains (finish zeroes it), so
// a chain sets only the fields it uses.
type release struct {
	s     *ServerTransport
	op    memreg.Op
	pr    parkedReply
	i     int
	key   connXID
	conn  *serverConn
	order []uint32 // a dead connection's parked XIDs still to release
	src   uint32   // an RDMA_DONE's authenticated source stream
	hold  des.Hold
	next  func(*release) // the step after putChunks
	after func(*release) // the step after unpark
	fn    func(any)
	arg   any
}

// finish ends the chain: fn(arg).
func (r *release) finish() {
	fn, arg := r.fn, r.arg
	*r = release{}
	fn(arg)
}

func releaseFinish(r *release) { r.finish() }

// putChunks puts r.pr's chunks back, in the order they were parked, then
// calls next.
func (r *release) putChunks(next func(*release)) {
	r.i, r.next = 0, next
	r.putNext()
}

func (r *release) putNext() {
	if r.i < r.pr.n {
		c := r.pr.chunks[r.i]
		r.i++
		r.s.mgr.PutThen(&r.op, c, chunkPut, r)
		return
	}
	next := r.next
	r.next, r.pr = nil, parkedReply{}
	next(r)
}

func chunkPut(a any) { a.(*release).putNext() }

// dropReply frees the chunks and the reserved pool slot of a reply that can
// be neither delivered nor acknowledged, then calls fn(arg).
func (r *release) dropReply(s *ServerTransport, conn *serverConn, pr parkedReply, fn func(any), arg any) {
	r.s, r.conn, r.pr, r.fn, r.arg = s, conn, pr, fn, arg
	r.putChunks(replyDropped)
}

func replyDropped(r *release) {
	r.conn.slots().Release(1)
	r.finish()
}

// releaseParked frees the buffers of the reply parked under key, if any,
// then calls fn(arg).
func (r *release) releaseParked(s *ServerTransport, key connXID, fn func(any), arg any) {
	r.s, r.fn, r.arg = s, fn, arg
	if !r.unpark(key, releaseFinish) {
		r.finish()
	}
}

// unpark releases the reply parked under key and then calls next, and
// reports true; with nothing parked there it reports false.
func (r *release) unpark(key connXID, next func(*release)) bool {
	s := r.s
	pr, ok := s.parked[key]
	if !ok {
		return false
	}
	delete(s.parked, key)
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.End(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindParked, s.node.Name(), "parked",
			key.conn.traceKey(key.xid), 0)
	}
	r.pr, r.key, r.after = pr, key, next
	r.putChunks(unparked)
	return true
}

func unparked(r *release) {
	key := r.key
	key.conn.pruneParkedOrder(key.xid)
	key.conn.parked--
	key.conn.slots().Release(1)
	after := r.after
	r.after = nil
	after(r)
}

// connDead transitions a connection to the dead state and releases every
// reply still parked for it — an RDMA_DONE can never arrive on a broken
// connection — then calls fn(arg). It is idempotent, and releases follow
// park order so the resulting reply-pool wakeups are deterministic. The
// connection is also forgotten: dropped from the accept-order list and its
// group's tables, so churn leaves nothing behind for Shutdown, sharedQPDead
// or the endpoint gauges to walk.
func (r *release) connDead(s *ServerTransport, conn *serverConn, fn func(any), arg any) {
	r.s, r.conn, r.fn, r.arg = s, conn, fn, arg
	if conn.dead {
		r.finish()
		return
	}
	conn.dead = true
	s.liveConns--
	conn.shard.nconns--
	if conn.stream != 0 {
		// Free the demux entry; the ibsim slot was already recycled by
		// endpointDead, so the server-side leak check is this map plus
		// nconns returning to baseline.
		delete(conn.shard.eps, conn.stream)
	} else {
		delete(conn.shard.conns, conn.qp)
	}
	if i := slices.Index(s.conns, conn); i >= 0 {
		s.conns = slices.Delete(s.conns, i, i+1)
	}
	// Detach the order slice before releasing: a release prunes
	// conn.parkedOrder in place.
	r.order = conn.parkedOrder
	conn.parkedOrder = nil
	r.releaseNext()
}

func (r *release) releaseNext() {
	for len(r.order) > 0 {
		xid := r.order[0]
		r.order = r.order[1:]
		if r.unpark(connXID{r.conn, xid}, connReleased) {
			return
		}
	}
	r.finish()
}

func connReleased(r *release) { r.releaseNext() }

// handleDone releases the reply parked for an RDMA_DONE, then calls fn(arg).
// It is run inline from the receive loops rather than through the worker
// queue: queueing DONEs behind data calls deadlocks the Read-Read design
// under open-loop overload — every worker waits reserving a reply slot while
// the DONEs that would free the slots sit unserved behind them.
//
// src is the fabric-authenticated source stream of the message (CQE.
// SrcStream): zero on dedicated connections, the sender's own slot id on a
// shared QP. conn is the connection the DONE *claims* to speak for; with
// stream-claim validation on, the two always agree by the time the message
// gets here, but in trust mode (Config.TrustStreamClaims) a forged claim
// reaches this point and a mismatched release is a cross-client free — the
// spoofed-DONE attack landing.
func (r *release) handleDone(s *ServerTransport, conn *serverConn, xid uint32, src uint32, fn func(any), arg any) {
	r.s, r.conn, r.key, r.src, r.fn, r.arg = s, conn, connXID{conn, xid}, src, fn, arg
	s.DoneRecv++
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindDone, s.node.Name(), "done-recv", conn.traceKey(xid), 0)
	}
	// DONE processing crosses the same serialized receive path as any
	// other message — part of why the Read-Read server saturates below
	// the Read-Write one even at full pipeline depth (§5.1).
	if s.serial != nil {
		s.serial.UseThen(&r.hold, s.cfg.SerialBase, doneSerialized, r)
		return
	}
	doneSerialized(r)
}

func doneSerialized(a any) {
	r := a.(*release)
	if !r.unpark(r.key, doneReleased) {
		doneJudged(r, false)
	}
}

func doneReleased(r *release) { doneJudged(r, true) }

// doneJudged scores a DONE once it released (or did not release) a reply.
func doneJudged(r *release, released bool) {
	s, conn, src := r.s, r.conn, r.src
	forged := src != 0 && src != conn.stream
	if !released {
		// No reply is parked under this (connection, XID) pair: a guessed
		// or replayed XID — or an honest DONE for a reply that had nothing
		// to park (inline Read-Read replies carry no chunks, but the client
		// acknowledges unconditionally). The park map is keyed by
		// connection, so even in trust mode a forged XID alone cannot free
		// another client's reply — the forgery has to spoof the stream
		// claim too.
		s.DoneRejected++
	} else if forged {
		// Trust mode released a park on the strength of a forged stream
		// claim: the attacker just freed a reply it does not own.
		s.CrossClientFrees++
	}
	// Only a provably forged message scores misbehavior: a missing park is
	// indistinguishable from a benign inline-reply acknowledgement, and
	// punishing it would let an attacker get honest clients quarantined —
	// or quarantine them outright (the fabric-stamped source is the one
	// thing the sender cannot fake).
	if forged {
		s.penalize(s.offender(conn, src))
	}
	r.finish()
}
