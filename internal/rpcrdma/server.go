package rpcrdma

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// nfsd is one server thread: where it runs, and the storage of the call it is
// serving. A thread serves one call at a time and waits for the reply Send
// before it takes the next, so what lives only while a call is served is the
// thread's and reused call after call: the bulk descriptors handed to the
// dispatcher, the list pushBulk annotates, the read list a Read-Read reply
// exposes, the reply Send and its completion.
type nfsd struct {
	cpu int // CPU placement for the affinity model, -1 when not modelled

	bulkIn, replyBuf oncrpc.Bulk
	pushed           []Segment
	exposed          []ReadSeg
	send             ibsim.SendWQE
	sent             des.Event
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

// postAndWait is post plus a blocking wait for the completion.
func (c *serverConn) postAndWait(p *des.Proc, w *ibsim.SendWQE) *ibsim.CQE {
	w.Stream = c.stream
	return c.qp.PostAndWait(p, w)
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

	// Hardening stats (see the adversary engine).
	DoneRejected     int64 // DONEs naming no parked reply on the sender's connection
	SpoofDrops       int64 // mux receives dropped for a forged stream claim
	CrossClientFrees int64 // parked replies freed by a DONE from a different endpoint (trust mode only)
	Quarantines      int64 // connections terminated by misbehavior scoring
}

// NewServerTransport creates the server engine and starts its worker pool.
func NewServerTransport(p *des.Proc, node *ibsim.Node, mgr *memreg.Manager, dispatcher *oncrpc.Dispatcher, cfg Config) *ServerTransport {
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
	for _, conn := range slices.Clone(s.conns) {
		if !conn.dead && conn.qp.Err() == nil {
			// On a multiplexed shard the first connection's Terminate kills
			// the shared QP — and with it every sibling endpoint; the rest of
			// the loop sees the QP already in error and just runs teardown.
			conn.qp.Terminate(fmt.Errorf("%w: server crashed", ErrClosed))
		}
		s.connDead(p, conn)
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
	case s.closed:
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
	s.node.Sim().Spawn(s.node.Name()+"/conn-recv", func(p *des.Proc) {
		for {
			cqe := qp.RecvCQ.Wait(p)
			if cqe == nil || cqe.Err != nil {
				s.connDead(p, conn)
				return
			}
			if conn.dead {
				// A crash (Shutdown) marked the connection dead while data
				// completions were still queued ahead of the error CQE; the
				// work queue is closed, so drop them and exit.
				return
			}
			sh.deliver(p, conn, cqe)
		}
	})
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

// migrate charges the completion-to-CPU affinity cost of resuming this task
// on worker CPU wcpu after a completion serviced on its shard's completion
// CPU. Legacy (unsharded) workers pass wcpu -1: no placement is modelled.
func (s *ServerTransport) migrate(p *des.Proc, conn *serverConn, wcpu int) {
	if wcpu < 0 {
		return
	}
	s.node.CPU.Migrate(p, conn.shard.cpuID, wcpu)
}

// connDead transitions a connection to the dead state and releases every
// reply still parked for it — an RDMA_DONE can never arrive on a broken
// connection. It is idempotent, and releases follow park order so the
// resulting reply-pool wakeups are deterministic. The connection is also
// forgotten: dropped from the accept-order list and its group's tables, so
// churn leaves nothing behind for Shutdown, sharedQPDead or the endpoint
// gauges to walk.
func (s *ServerTransport) connDead(p *des.Proc, conn *serverConn) {
	if conn.dead {
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
	// Snapshot then detach the order slice before iterating: releaseParked
	// prunes conn.parkedOrder in place, which would corrupt a range over the
	// live slice.
	order := conn.parkedOrder
	conn.parkedOrder = nil
	for _, xid := range order {
		s.releaseParked(p, connXID{conn, xid})
	}
}

// traceKey builds the trace pairing id of one (connection, XID) exchange.
func (c *serverConn) traceKey(xid uint32) uint64 { return c.id<<32 | uint64(xid) }

// handleDone releases the reply parked for an RDMA_DONE. It is called
// inline from the receive loops rather than through the worker queue:
// queueing DONEs behind data calls deadlocks the Read-Read design under
// open-loop overload — every worker blocks reserving a reply slot while the
// DONEs that would free the slots sit unserved behind them.
//
// src is the fabric-authenticated source stream of the message (CQE.
// SrcStream): zero on dedicated connections, the sender's own slot id on a
// shared QP. conn is the connection the DONE *claims* to speak for; with
// stream-claim validation on, the two always agree by the time the message
// gets here, but in trust mode (Config.TrustStreamClaims) a forged claim
// reaches this point and a mismatched release is a cross-client free — the
// spoofed-DONE attack landing.
func (s *ServerTransport) handleDone(p *des.Proc, conn *serverConn, xid uint32, src uint32) {
	s.DoneRecv++
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindDone, s.node.Name(), "done-recv", conn.traceKey(xid), 0)
	}
	// DONE processing crosses the same serialized receive path as any
	// other message — part of why the Read-Read server saturates below
	// the Read-Write one even at full pipeline depth (§5.1).
	if s.serial != nil {
		s.serial.Use(p, 1, s.cfg.SerialBase)
	}
	released := s.releaseParked(p, connXID{conn, xid})
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
		s.penalize(p, s.offender(conn, src))
	}
}

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
func (s *ServerTransport) penalize(p *des.Proc, conn *serverConn) {
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
		tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindDone, s.node.Name(), "quarantine", conn.traceKey(0), int64(conn.misbehavior))
	}
	if conn.stream != 0 {
		conn.qp.TerminateEndpoint(conn.stream, ErrQuarantined)
	} else {
		conn.qp.Terminate(ErrQuarantined)
	}
}

// handle is one server thread's (nfsd) pass over one call: the paper's
// two-part state machine — receive path (allocate buffers, pull chunks, call
// the file system) and the return path (register reply buffers, push data,
// reply). w is the thread it runs on.
func (s *ServerTransport) handle(p *des.Proc, task *serverTask, w *nfsd) {
	hdr := &task.hdr
	if task.conn.dead {
		// The connection died while this message sat in the work queue;
		// serving it would park a reply nothing can ever release.
		s.TasksDropped++
		return
	}
	s.Requests++
	s.node.CPU.Work(p, s.cfg.PerOpCPU)

	// --- Receive path ---
	callBytes := task.body
	if hdr.Type == MsgNoMsg {
		// RPC Long Call: pull the message body advertised at position 0.
		s.LongCalls++
		var err error
		callBytes, err = s.pullLongCall(p, task, w)
		if err != nil {
			return // connection-level failure; QP is already in error
		}
	}

	// Pull WRITE-class payload (read chunks at positions > 0). The server
	// thread blocks until its RDMA Reads complete: InfiniBand gives no
	// ordering between a Read and a later Send, so there is no overlap to
	// exploit (§4.1).
	var bulkIn *oncrpc.Bulk
	var bulkInChk *memreg.Chunk
	dataLen := hdr.readBytes(false)
	if dataLen > 0 {
		pullStart := p.Now()
		// The receive path — buffer allocation, registration, chunk pulls —
		// runs under the serialized section when modelled; the synchronous
		// RDMA Read wait is additionally held inside it when
		// SerializeSyncRead is set.
		if s.serial != nil {
			s.serial.Acquire(p, 1)
			p.Sleep(s.cfg.SerialBase)
		}
		bulkInChk = s.mgr.GetUnregistered(p, dataLen, ibsim.AccessLocalWrite)
		s.mgr.RegisterChunk(p, bulkInChk, dataLen) // must precede the DMA
		off := 0
		var events []*des.Event
		for _, seg := range hdr.ReadList {
			if seg.Position == 0 {
				continue
			}
			s.BulkReads++
			ev := des.NewEvent(s.node.Sim())
			wqe := &ibsim.SendWQE{WRID: uint64(hdr.XID), Op: ibsim.OpRead, RemoteKey: seg.Rkey, RemoteAddr: seg.Addr}
			wqe.SetLocal(&bulkInChk.Buf, off, int(seg.Length))
			postWithEvent(task.conn, wqe, ev)
			events = append(events, ev)
			off += int(seg.Length)
		}
		if s.serial != nil && !s.cfg.SerializeSyncRead {
			s.serial.Release(1)
		}
		failed := false
		for _, ev := range events {
			cqe := ev.Wait(p).(*ibsim.CQE)
			if cqe.Err != nil {
				failed = true
			}
		}
		s.node.CPU.Interrupt(p) // the completion that unblocks the thread
		s.migrate(p, task.conn, w.cpu)
		if s.serial != nil && s.cfg.SerializeSyncRead {
			s.serial.Release(1)
		}
		if tr := s.node.Sim().Tracer(); tr != nil {
			tr.Span(int64(pullStart), int64(p.Now()), trace.LayerRPC, trace.KindBulkRead, s.node.Name(),
				"bulk-read", task.conn.traceKey(hdr.XID), int64(dataLen))
		}
		if failed {
			s.mgr.Put(p, bulkInChk)
			return
		}
		var data []byte
		if d := bulkInChk.Data(); d != nil {
			data = d[:dataLen]
		}
		w.bulkIn = oncrpc.Bulk{Data: data, Len: dataLen, Handle: &bulkInChk.Buf}
		bulkIn = &w.bulkIn
	}

	// Reply-payload staging: allocated on the receive path, registered when
	// control returns from the file system (§4.3, Figure 1).
	recvCap := 0
	for _, seg := range hdr.WriteList {
		recvCap += int(seg.Length)
	}
	if s.cfg.Design == ReadRead {
		recvCap = maxBulk
	}
	var replyStaging *memreg.Chunk
	var replyBuf *oncrpc.Bulk
	if recvCap > 0 {
		replyStaging = s.mgr.GetUnregistered(p, recvCap, s.replyAccess())
		w.replyBuf = oncrpc.Bulk{Data: replyStaging.Data(), Len: 0, Handle: &replyStaging.Buf}
		replyBuf = &w.replyBuf
		if replyBuf.Data != nil && recvCap < len(replyBuf.Data) {
			replyBuf.Data = replyBuf.Data[:recvCap]
		}
	}

	// --- File system ---
	peer := task.conn.peerName
	if s.cfg.TrustCredDRC {
		peer = "" // fall back to the forgeable credential machine name
	}
	// The reply is built behind room for its header: the write list echoed
	// back (Read-Write, Reply-Fetch), or one exposed read segment (an
	// estimate: Read-Read knows what it exposes only once it has the data).
	room := hdrBase + segSize*len(hdr.WriteList)
	if s.cfg.Design == ReadRead {
		room = hdrBase + readSegSize
	}
	reply, bulkOut, _ := s.dispatcher.Dispatch(p, callBytes, oncrpc.DispatchOpts{
		Bulk:        bulkIn,
		RecvBulkCap: recvCap,
		ReplyBuf:    replyBuf,
		Room:        room,
		Peer:        peer,
	})
	if bulkInChk != nil {
		s.mgr.Put(p, bulkInChk)
	}
	if reply == nil {
		// Not a call (the dispatcher counts it; a call it denies comes with
		// its MSG_DENIED reply, sent below like any other), or a duplicate of
		// a call still executing that the dispatcher suppressed (DRC
		// in-progress entry) — the original execution will produce the
		// reply; this copy just drops.
		if replyStaging != nil {
			s.mgr.Put(p, replyStaging)
		}
		return
	}

	// --- Return path ---
	s.reply(p, task, reply, room, bulkOut, replyStaging, w)
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

// pullLongCall fetches an RDMA_NOMSG call body.
func (s *ServerTransport) pullLongCall(p *des.Proc, task *serverTask, w *nfsd) ([]byte, error) {
	n := task.hdr.readBytes(true)
	if n == 0 {
		return nil, fmt.Errorf("%w: NOMSG call without position-0 chunk", ErrBadHeader)
	}
	if tr := s.node.Sim().Tracer(); tr != nil {
		pullStart := p.Now()
		defer func() {
			tr.Span(int64(pullStart), int64(p.Now()), trace.LayerRPC, trace.KindBulkRead, s.node.Name(),
				"long-call-read", task.conn.traceKey(task.hdr.XID), int64(n))
		}()
	}
	staging := s.mgr.Get(p, n, ibsim.AccessLocalWrite)
	defer s.mgr.Put(p, staging)
	off := 0
	for _, seg := range task.hdr.ReadList {
		if seg.Position != 0 {
			continue
		}
		s.BulkReads++
		wqe := &ibsim.SendWQE{WRID: uint64(task.hdr.XID), Op: ibsim.OpRead, RemoteKey: seg.Rkey, RemoteAddr: seg.Addr}
		wqe.SetLocal(&staging.Buf, off, int(seg.Length))
		cqe := task.conn.postAndWait(p, wqe)
		s.migrate(p, task.conn, w.cpu)
		if cqe.Err != nil {
			return nil, fmt.Errorf("%w: long call read: %v", ErrTransport, cqe.Err)
		}
		off += int(seg.Length)
	}
	return append([]byte(nil), staging.Data()[:n]...), nil
}

// reply is the return path, one skeleton for all three designs: header and
// credit grant, reply-slot reservation, the serialized send section, bulk
// placement, message placement, post, park or release. The design decides
// only how the bulk is placed (pushed into the client's write list or
// exposed as read chunks), how the message travels (inline or long-reply
// chunk, exposed read chunk, or slot deposit) and what is posted (a Send the
// worker waits on, or two Writes it does not).
//
// Read-Write: RDMA Write data to the client's advertised chunks, then the
// inline (or NOMSG long) reply. The send completion guarantees the writes
// are placed, so every buffer is released immediately — no DONE, no parking,
// no exposure.
//
// Read-Read: expose the reply data (and long replies) as read chunks, park
// the buffers, and wait for RDMA_DONE to release them.
//
// Reply-Fetch (RFP): bulk is RDMA-Written into the client's write list
// exactly as in Read-Write, then the whole reply message is deposited into
// the client's advertised reply slot with two more RDMA Writes — the encoded
// reply at slot+8, then the doorbell word (wireLen+1) at slot+0. In-order
// Write delivery means the doorbell's arrival implies everything before it
// is placed, so NO Send is posted and the worker never blocks on a
// completion interrupt: the entire send-processing + interrupt cost of the
// reply path disappears from the server. The deposit staging stays parked
// until the client's RDMA_DONE confirms it read the slot (same recycle flow
// as Read-Read).
//
// reply is the message behind room bytes its header is written into.
func (s *ServerTransport) reply(p *des.Proc, task *serverTask, reply []byte, room int, bulkOut *oncrpc.Bulk, staging *memreg.Chunk, w *nfsd) {
	conn, call, design := task.conn, &task.hdr, s.cfg.Design
	msg := reply[room:]
	rh := &Header{XID: call.XID, Credits: s.advertiseCredits(conn), Type: MsgRDMA}
	if design == ReplyFetch && len(call.ReplyChunk) == 0 {
		// No slot advertised: an RFP reply is undeliverable.
		if staging != nil {
			s.mgr.Put(p, staging)
		}
		return
	}
	outLen := 0
	if bulkOut != nil {
		outLen = bulkOut.Len
	}

	// Reserve the reply-buffer slot BEFORE the serialized send path: a
	// blocked reservation (pool exhausted by unacknowledged replies) must
	// park only this worker, never the whole send path. Every RFP reply
	// parks its deposit staging; a Read-Read reply parks whatever it exposes
	// — bulk, or a message over the inline threshold.
	reserved := design == ReplyFetch || design == ReadRead && (outLen > 0 || len(msg) > s.cfg.InlineThreshold)
	if reserved {
		conn.slots().Acquire(p, 1)
	}
	if design == ReplyFetch {
		// A retransmission answered from the DRC can deposit again while the
		// first deposit still sits parked (the client never fetched it, so no
		// DONE came). Retire the stale park first — one DONE will arrive for
		// this XID at most, and it must release the fresh deposit, not leak it.
		s.releaseParked(p, connXID{conn, call.XID})
	}
	// The send path — reply marshalling, registration on return from the
	// file system, push posting — runs under the serialized section.
	if s.serial != nil {
		s.serial.Acquire(p, 1)
		p.Sleep(s.cfg.serialHold(outLen))
	}

	// --- Bulk: expose it (Read-Read) or push it (Read-Write, Reply-Fetch) ---
	var park parkedReply
	switch {
	case outLen == 0:
	case design == ReadRead:
		if staging != nil {
			s.mgr.RegisterChunk(p, staging, outLen) // exposes the buffer (RemoteRead)
			w.exposed = appendReadSegs(w.exposed[:0], uint32(len(msg)), staging.Reg, outLen)
			rh.ReadList = w.exposed
			park.add(staging)
			staging = nil
		}
	case len(call.WriteList) > 0:
		// Registration happens now — on return from the file system — which
		// is what makes the slab cache's hit path free.
		if staging != nil {
			s.mgr.RegisterChunk(p, staging, outLen)
		}
		pushed, residual := s.pushBulk(p, w, conn, &staging.Buf, outLen, call.WriteList)
		if residual > 0 {
			// The client's advertised write chunks cannot hold the payload.
			// The annotated WriteList already tells the client how much
			// landed; count the truncation so it is visible server-side too.
			s.shortWrite(p, conn, call.XID, residual)
		}
		rh.WriteList = pushed
		if design == ReplyFetch {
			// No send completion will say the Writes are placed; the DONE does.
			park.add(staging)
			staging = nil
		}
	}
	if design == ReplyFetch && staging != nil {
		s.mgr.Put(p, staging) // no payload produced; release unregistered
		staging = nil
	}

	// --- Message: inline, long-reply chunk, or slot deposit ---
	var wireLen int
	var longChk, depChk *memreg.Chunk
	switch {
	case design == ReplyFetch:
		wireLen = rh.wireSize() + len(msg)
		if over := wireLen + doorbellBytes - int(call.ReplyChunk[0].Length); over > 0 {
			// The reply outgrew the client's slot; it cannot be delivered. The
			// client's watchdog will time out and the retransmission hits the
			// DRC — same terminal behaviour as an undeliverable long reply.
			s.shortWrite(p, conn, call.XID, over)
			s.dropReply(p, conn, park)
			if s.serial != nil {
				s.serial.Release(1)
			}
			return
		}
		// Stage the deposit: [doorbell word | header | message] in one
		// local-only chunk (protocol staging is materialized, so the bytes
		// really cross), the message copied behind the header's room.
		depChk = s.mgr.Get(p, doorbellBytes+wireLen, ibsim.AccessLocalWrite)
		if d := depChk.Data(); d != nil {
			binary.LittleEndian.PutUint64(d[:doorbellBytes], uint64(wireLen)+1)
			copy(d[doorbellBytes+rh.wireSize():], msg)
			rh.frame(d[doorbellBytes:doorbellBytes+wireLen], rh.wireSize())
		}
		s.node.CPU.Copy(p, wireLen)
		s.Deposits++
		if tr := s.node.Sim().Tracer(); tr != nil {
			tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindBulkWrite, s.node.Name(), "deposit",
				conn.traceKey(call.XID), int64(wireLen))
		}
		park.add(depChk)
	case len(msg) <= s.cfg.InlineThreshold:
		// Inline reply.
	case design == ReadRead && len(msg) <= s.cfg.recvBufSize():
		// Oversized-but-deliverable reply: the posted receives carry
		// headroom beyond the threshold, so send it inline.
	case design == ReadWrite && len(call.ReplyChunk) == 0:
		// Slightly oversized reply with no reply chunk advertised: the
		// posted receives carry headroom beyond the threshold, so squeeze
		// it inline rather than dropping the call. Truly oversized replies
		// without placement cannot be delivered.
		if len(msg) > s.cfg.recvBufSize() {
			if s.serial != nil {
				s.serial.Release(1)
			}
			if staging != nil {
				s.mgr.Put(p, staging)
			}
			return
		}
	default:
		// RPC Long Reply: the whole message travels as a chunk under NOMSG —
		// written into the client's reply chunk (Read-Write) or exposed for
		// the client to read (Read-Read).
		s.LongReplies++
		longChk = s.mgr.Get(p, len(msg), s.replyAccess())
		if d := longChk.Data(); d != nil {
			copy(d, msg)
		}
		s.node.CPU.Copy(p, len(msg))
		rh.Type = MsgNoMsg
		if design == ReadRead {
			// A NOMSG reply carries only itself.
			w.exposed = appendReadSegs(w.exposed[:0], 0, longChk.Reg, len(msg))
			rh.ReadList = w.exposed
			park.add(longChk)
			longChk = nil
		} else {
			var residual int
			rh.ReplyChunk, residual = s.pushBulk(p, w, conn, &longChk.Buf, len(msg), call.ReplyChunk)
			if residual > 0 {
				s.shortWrite(p, conn, call.XID, residual)
			}
		}
		reply, room = nil, 0 // the Send carries the header alone
	}
	if design == ReadRead && staging != nil {
		s.mgr.Put(p, staging) // no payload produced; release unregistered
		staging = nil
	}

	// --- Post, and park or release ---
	if design == ReplyFetch {
		// Body first, doorbell last: the QP launches these in order and the
		// port serializes their data, so the doorbell can only land after the
		// reply (and any bulk pushed above) is already in client memory.
		slot := call.ReplyChunk[0]
		conn.write(uint64(call.XID), &depChk.Buf, doorbellBytes, wireLen, slot.Rkey, slot.Addr+doorbellBytes)
		conn.write(uint64(call.XID), &depChk.Buf, 0, doorbellBytes, slot.Rkey, slot.Addr)
		if s.serial != nil {
			s.serial.Release(1)
		}
		s.park(p, conn, call.XID, park, reserved)
		return
	}
	s.park(p, conn, call.XID, park, reserved)
	w.send = ibsim.SendWQE{WRID: uint64(call.XID), Op: ibsim.OpSend, Payload: rh.frame(reply, room)}
	w.sent.Init(s.node.Sim())
	postWithEvent(conn, &w.send, &w.sent)
	if s.serial != nil {
		s.serial.Release(1) // posting done; the wire drains without the lock
	}
	w.sent.Wait(p)
	s.node.CPU.Interrupt(p)
	s.migrate(p, conn, w.cpu)
	// Send completion => prior RDMA Writes placed; deregister and release
	// whatever Read-Write still holds (Read-Read parked or freed it all).
	if staging != nil {
		s.mgr.Put(p, staging)
	}
	if longChk != nil {
		s.mgr.Put(p, longChk)
	}
}

// park pins a built reply's chunks until the client's RDMA_DONE, or settles
// the reservation when there is nothing (or no one) to park for.
func (s *ServerTransport) park(p *des.Proc, conn *serverConn, xid uint32, pr parkedReply, reserved bool) {
	switch {
	case pr.n > 0 && conn.dead:
		// The connection died while this reply was being built: no DONE can
		// ever release it, so free the buffers and the slot immediately
		// instead of parking (the leak this lifecycle state machine closes).
		s.dropReply(p, conn, pr)
	case pr.n > 0:
		// The reply-buffer pool bounds how many replies can sit waiting for
		// DONE (slot reserved above). With the original design's single
		// shared pool, a client that never sends DONE pins slots until the
		// server stops serving anyone (§4.1); with dynamic credits the pool
		// — and the grant — are per connection, so a misbehaving client
		// wedges only itself.
		conn.parked++
		conn.parkedOrder = append(conn.parkedOrder, xid)
		s.parked[connXID{conn, xid}] = pr
		if tr := s.node.Sim().Tracer(); tr != nil {
			tr.Begin(int64(p.Now()), trace.LayerRPC, trace.KindParked, s.node.Name(), "parked",
				conn.traceKey(xid), int64(pr.n))
		}
	case reserved:
		// Reserved but nothing ended up parked (e.g. squeezed inline).
		conn.slots().Release(1)
	}
}

// dropReply frees the chunks and the reserved pool slot of a reply that can
// be neither delivered nor acknowledged.
func (s *ServerTransport) dropReply(p *des.Proc, conn *serverConn, pr parkedReply) {
	s.putParked(p, pr)
	conn.slots().Release(1)
}

// putParked releases a parked reply's chunks, in the order they were parked.
func (s *ServerTransport) putParked(p *des.Proc, pr parkedReply) {
	for _, c := range pr.chunks[:pr.n] {
		s.mgr.Put(p, c)
	}
}

// pushBulk RDMA-Writes n bytes from src into the peer segments, returning
// the segments annotated with actual lengths plus the residual byte count
// that did not fit in the peer's advertised capacity (0 on a full push).
// Writes are unsignaled except implicitly through the following send
// (Write-then-Send ordering). The annotated list is appended to the thread's
// storage, after what an earlier push of the same reply left there.
func (s *ServerTransport) pushBulk(p *des.Proc, w *nfsd, conn *serverConn, src *ibsim.Buffer, n int, dst []Segment) ([]Segment, int) {
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
			tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindBulkWrite, s.node.Name(), "bulk-write", uint64(seg.Rkey), int64(l))
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
func (s *ServerTransport) shortWrite(p *des.Proc, conn *serverConn, xid uint32, residual int) {
	s.ShortWrites++
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(p.Now()), trace.LayerRPC, trace.KindShortWrite, s.node.Name(), "short-write",
			conn.traceKey(xid), int64(residual))
	}
}

// releaseParked frees the buffers of one acknowledged reply, reporting
// whether anything was parked under the key.
func (s *ServerTransport) releaseParked(p *des.Proc, key connXID) bool {
	pr, ok := s.parked[key]
	if !ok {
		return false
	}
	delete(s.parked, key)
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.End(int64(p.Now()), trace.LayerRPC, trace.KindParked, s.node.Name(), "parked",
			key.conn.traceKey(key.xid), 0)
	}
	s.putParked(p, pr)
	key.conn.pruneParkedOrder(key.xid)
	key.conn.parked--
	key.conn.slots().Release(1)
	return true
}

// postWithEvent posts a WQE toward conn's client; its completion fires ev.
func postWithEvent(conn *serverConn, w *ibsim.SendWQE, ev *des.Event) {
	w.Signaled = false
	w.Done = ev
	conn.post(w)
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
