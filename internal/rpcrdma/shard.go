package rpcrdma

import (
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/trace"
)

// serverShard is one dispatch shard of a scaled-out server transport. Each
// shard owns a shared receive CQ, an SRQ feeding every connection assigned
// to it (hash by connection id), a work queue, and a slice of the worker
// pool. Receive-side resources therefore scale with shard count and SRQ
// depth, not with connection count — the per-connection receive rings that
// stop RDMA servers from scaling past tens of connections (RDMAvisor) are
// gone, and completion processing parallelizes across shards instead of
// funnelling through one receive loop per connection.
//
// The per-connection receive path is the same structure minus the CQ and
// SRQ (newLegacyGroup): one group holding the whole worker pool, fed by each
// connection's own receive loop off its private ring.
type serverShard struct {
	srv   *ServerTransport
	id    int
	cq    *ibsim.CQ
	srq   *ibsim.SRQ
	workQ *des.Queue
	conns map[*ibsim.QP]*serverConn // live dedicated connections, by their QP

	// track is the shard's trace track ("<node>/shard<i>"): serve spans land
	// on per-shard rows so a trace viewer shows dispatch balance directly.
	track string

	// Multiplexed mode: the shard owns one shared QP that every client on it
	// attaches a lightweight endpoint to, and eps demultiplexes arrivals by
	// CQE stream id. muxQP is nil when clients get dedicated QPs.
	muxQP *ibsim.QP
	eps   map[uint32]*serverConn

	// cpuID is the CPU servicing this shard's completion vector; the
	// affinity model charges a migration whenever a worker on another CPU
	// resumes off one of this shard's completions.
	cpuID int

	nextWRID uint64

	// free holds the tasks the workers have finished with, for deliver to
	// reuse: never more than were queued or being served at once.
	free des.FreeList[serverTask]

	// Stats.
	nconns        int   // live connections attached to this shard
	requests      int64 // messages dispatched by this shard's receive loop
	maxQueueDepth int   // high-water mark of the shard work queue
}

func newServerShard(s *ServerTransport, id int) *serverShard {
	node := s.node
	sh := &serverShard{
		srv:   s,
		id:    id,
		cq:    ibsim.NewCQ(node, fmt.Sprintf("%s/shard%d/rcq", node.Name(), id)),
		workQ: des.NewQueue(node.Sim(), fmt.Sprintf("%s/shard%d/workq", node.Name(), id)),
		conns: make(map[*ibsim.QP]*serverConn),
		cpuID: node.CPU.PinFor(id),
		track: fmt.Sprintf("%s/shard%d", node.Name(), id),
	}
	sh.srq = ibsim.NewSRQ(node, fmt.Sprintf("%s/shard%d/srq", node.Name(), id),
		ibsim.SRQConfig{Depth: s.cfg.SRQDepth, Limit: s.cfg.SRQDepth / 8})
	for sh.srq.PostRecv(sh.nextWRID, s.cfg.recvBufSize()) {
		sh.nextWRID++
	}
	if s.cfg.Multiplex {
		sh.eps = make(map[uint32]*serverConn)
		sh.armMuxQP()
	}
	workers := s.cfg.Workers / s.cfg.Shards
	if workers < 1 {
		workers = 1
	}
	node.Sim().Spawn(fmt.Sprintf("%s/shard%d/recv", node.Name(), id), sh.recvLoop)
	node.Sim().Spawn(fmt.Sprintf("%s/shard%d/refill", node.Name(), id), sh.refillLoop)
	for i := 0; i < workers; i++ {
		// With affinity on, the shard's workers live on its completion CPU
		// (warm-cache local wakes); off, they spread round-robin over all
		// cores and completions migrate to reach them.
		wcpu := sh.cpuID
		if !s.cfg.Affinity {
			wcpu = node.CPU.PinFor(s.workerSeq)
			s.workerSeq++
		}
		node.Sim().Spawn(fmt.Sprintf("%s/shard%d/nfsd-%d", node.Name(), id, i), func(p *des.Proc) {
			sh.worker(p, wcpu)
		})
	}
	return sh
}

// newLegacyGroup builds the per-connection path's single dispatch group: no
// CQ or SRQ (each connection brings its own), no CPU placement (wcpu -1),
// serve spans on the node's own track.
func newLegacyGroup(s *ServerTransport) *serverShard {
	node := s.node
	sh := &serverShard{
		srv:   s,
		workQ: des.NewQueue(node.Sim(), node.Name()+"/rpcrdma-workq"),
		track: node.Name(),
	}
	for i := 0; i < s.cfg.Workers; i++ {
		node.Sim().Spawn(fmt.Sprintf("%s/nfsd-%d", node.Name(), i), func(p *des.Proc) {
			sh.worker(p, -1)
		})
	}
	return sh
}

// armMuxQP installs a fresh shared QP on the shard, wired to the shard CQ
// and SRQ. Called at construction and again if the shared QP ever dies while
// the transport is still serving (rearming is what keeps one poisoned QP
// from permanently wedging a shard's whole client population).
func (sh *serverShard) armMuxQP() {
	node := sh.srv.node
	sh.muxQP = node.Fabric().NewMuxQP(node, ibsim.QPConfig{})
	sh.muxQP.SetRecvCQ(sh.cq)
	sh.muxQP.AttachSRQ(sh.srq)
}

// recvLoop is the shard's completion-polling loop: one loop serves every
// connection on the shard, demultiplexing by CQE.QP (dedicated connections)
// or CQE.Stream (endpoints on the shared QP). A connection error kills only
// that connection; the shard — and every other connection on it — keeps
// running. Only a shared-QP-scope error (mux CQE with stream 0) takes the
// whole shard's population down, and even then the shard re-arms a fresh
// shared QP so redialing clients can come back.
func (sh *serverShard) recvLoop(p *des.Proc) {
	s := sh.srv
	for {
		cqe := sh.cq.Wait(p)
		if cqe == nil {
			return
		}
		var conn *serverConn
		if cqe.QP != nil && cqe.QP.IsMux() {
			if cqe.QP != sh.muxQP {
				continue // flush stragglers from a replaced shared QP
			}
			if cqe.Err != nil && cqe.Stream == 0 {
				sh.sharedQPDead(p)
				continue
			}
			conn = sh.eps[cqe.Stream]
		} else {
			conn = sh.conns[cqe.QP]
		}
		if cqe.Err != nil {
			if conn != nil {
				s.connDead(p, conn)
			}
			continue
		}
		sh.deliver(p, conn, cqe)
	}
}

// deliver is the one receive step, shared by the shard loop and the
// per-connection loops, which differ only in the CQ they wait on and how a
// completion maps to its connection: repost the receive, authenticate the
// sender, decode, then serve (RDMA_DONE) or enqueue (everything else).
func (sh *serverShard) deliver(p *des.Proc, conn *serverConn, cqe *ibsim.CQE) {
	s := sh.srv
	if sh.srq != nil {
		// Return the consumed WQE to the shared pool straight away; the
		// refill loop is only a safety net for bursts that outrun this.
		sh.srq.PostRecv(cqe.WRID, s.cfg.recvBufSize())
	} else {
		conn.qp.PostRecv(cqe.WRID, s.cfg.recvBufSize())
	}
	if cqe.SrcStream != 0 && cqe.Stream != cqe.SrcStream && !s.cfg.TrustStreamClaims {
		// The sender's claimed stream differs from the slot the fabric
		// says it actually posted from: a spoofed message trying to
		// speak as another endpoint (forged DONEs, forged calls against
		// the DRC). Drop it and score the *authentic* sender — the
		// claimed endpoint is the victim, not the offender.
		s.SpoofDrops++
		s.penalize(p, sh.eps[cqe.SrcStream])
		return
	}
	if conn == nil || conn.dead {
		return
	}
	if s.closed {
		// Shutdown parks while it releases parked replies, and a connection
		// admitted during that drain is not in the snapshot it kills: its loop
		// is still receiving when the work queues close.
		s.TasksDropped++
		return
	}
	// Decode straight into a task: one that turns out undecodable or an
	// RDMA_DONE goes back at once, so neither leaves anything to collect.
	task := sh.free.Get()
	var err error
	if task.body, err = DecodeHeaderInto(&task.hdr, cqe.Payload); err != nil {
		s.BadHeaders++
		sh.putTask(task)
		return
	}
	if task.hdr.Type == MsgDone {
		// Served inline: a DONE queued behind data calls can deadlock
		// the reply-slot pool (see handleDone).
		xid := task.hdr.XID
		sh.putTask(task)
		s.handleDone(p, conn, xid, cqe.SrcStream)
		return
	}
	sh.requests++
	if d := sh.workQ.Len(); d > sh.maxQueueDepth {
		sh.maxQueueDepth = d
	}
	task.conn = conn
	sh.workQ.Put(task)
}

// putTask takes back a task nothing refers to any more. It is zeroed but for
// the capacity of its segment lists (plain numbers), so that it pins no
// connection or wire message meanwhile.
func (sh *serverShard) putTask(t *serverTask) {
	h := &t.hdr
	*t = serverTask{hdr: Header{ReadList: h.ReadList[:0], WriteList: h.WriteList[:0], ReplyChunk: h.ReplyChunk[:0]}}
	sh.free.Put(t)
}

// sharedQPDead handles the shard's shared QP entering the error state:
// every endpoint on it is gone (the QP-scope flush already killed their
// client-side QPs), so tear their connections down in accept order, then —
// unless the transport is closing — arm a replacement shared QP for the
// reconnects that follow.
func (sh *serverShard) sharedQPDead(p *des.Proc) {
	s := sh.srv
	// connDead prunes s.conns, so walk a snapshot.
	for _, conn := range slices.Clone(s.conns) {
		if conn.shard == sh && conn.stream != 0 && !conn.dead {
			s.connDead(p, conn)
		}
	}
	if !s.closed && !s.draining {
		sh.armMuxQP()
	}
}

// refillLoop tops the SRQ back up whenever the low-watermark limit event
// fires — the IB SRQ_LIMIT asynchronous-event pattern.
func (sh *serverShard) refillLoop(p *des.Proc) {
	for {
		sh.srq.ArmLimit().Wait(p)
		for sh.srq.PostRecv(sh.nextWRID, sh.srv.cfg.recvBufSize()) {
			sh.nextWRID++
		}
	}
}

// worker is one server thread (nfsd) draining the group's work queue through
// the shared handler. wcpu is where this worker runs; picking a task
// enqueued by the shard's completion loop is itself a completion handoff, so
// it pays the affinity toll before any protocol work starts. While tracing,
// each call is wrapped in a serve span on the group's track, so the exported
// trace shows per-shard dispatch balance as separate rows.
func (sh *serverShard) worker(p *des.Proc, wcpu int) {
	s := sh.srv
	w := &nfsd{cpu: wcpu}
	for {
		v, ok := sh.workQ.Get(p)
		if !ok {
			return
		}
		task := v.(*serverTask)
		s.migrate(p, task.conn, wcpu)
		tr, start := s.node.Sim().Tracer(), p.Now()
		s.handle(p, task, w)
		if tr != nil {
			tr.Span(int64(start), int64(p.Now()), trace.LayerRPC, trace.KindServe, sh.track,
				task.hdr.Type.String(), task.conn.traceKey(task.hdr.XID), 0)
		}
		// handle has returned: the reply Send, if one was posted, has
		// completed, and nothing else held the task or the thread's storage.
		// Idle, the thread pins no wire message, staging buffer or payload.
		sh.putTask(task)
		*w = nfsd{cpu: wcpu, pushed: w.pushed[:0], exposed: w.exposed[:0]}
	}
}

// ShardStat is one shard's externally visible counters.
type ShardStat struct {
	Shard          int
	Conns          int   // live connections currently attached
	Requests       int64 // messages dispatched
	MaxQueueDepth  int   // work-queue high-water mark
	SRQPosted      int64
	SRQConsumed    int64
	SRQLimitEvents int64
	SRQStarved     int64 // takes that found the pool empty (RNR stalls)
	Endpoints      int   // live endpoints on the shared QP (multiplexed mode)
	MuxSlots       int   // shared-QP slot-table high water (leak check)
}

// ShardStats snapshots per-shard counters; empty when dispatch is not
// sharded.
func (s *ServerTransport) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, len(s.shards))
	for _, sh := range s.shards {
		st := ShardStat{
			Shard:          sh.id,
			Conns:          sh.nconns,
			Requests:       sh.requests,
			MaxQueueDepth:  sh.maxQueueDepth,
			SRQPosted:      sh.srq.Posted,
			SRQConsumed:    sh.srq.Consumed,
			SRQLimitEvents: sh.srq.LimitEvents,
			SRQStarved:     sh.srq.Starved,
		}
		if sh.muxQP != nil {
			st.Endpoints = sh.muxQP.Endpoints()
			st.MuxSlots = sh.muxQP.SlotTableSize()
		}
		out = append(out, st)
	}
	return out
}
