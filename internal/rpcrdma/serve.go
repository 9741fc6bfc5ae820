package rpcrdma

import (
	"encoding/binary"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/trace"
)

// A server thread's pass over one call — the paper's two-part state machine
// (Fig. 1): receive path, file system, return path — waits only for the
// host CPU, the HCA (registration, RDMA Reads, the reply Send), the disk
// array, time and FIFO resources (the serialized section, the reply-slot
// pool). So a pass is a chain of callbacks on the scheduler loop, each step
// taken at the instant and in the place in the event order where a process
// running the pass would take it, with its state in the thread's storage
// (nfsd). A thread has no process.
//
// The steps, in order (a step a call does not need calls the next at once):
//
//	nfsdWoken      take a task (idle threads in the order they became idle),
//	               charge the completion handoff
//	serveTask      PerOpCPU
//	callReceived   pull a long call (pullLongCall), or
//	pullBulk       the serialized section, staging, registration, the RDMA
//	               Reads of the write chunks, their completion interrupt
//	replyStage     reply staging
//	dispatch       the RPC layer (oncrpc.Dispatcher.DispatchThen)
//	dispatched     put the pulled payload back
//	replyPath      reserve a reply slot, retire a stale deposit, the
//	               serialized section, place the bulk and the message, post,
//	               park or release, wait for the Send and its interrupt
//	passDone       the serve span; idle again

// nfsd is one server thread: a slot of the worker pool, where it runs, and
// the storage of the call it serves. A
// thread serves one call at a time and waits for the reply Send before it
// takes the next, so what lives only while a call is served is the thread's
// and reused call after call.
type nfsd struct {
	sh  *serverShard
	cpu int // CPU placement for the affinity model, -1 when not modelled

	charge cpu.Charge
	op     memreg.Op
	rel    release
	cs     completions
	st     oncrpc.Serving

	pass
}

// pass is what a thread keeps for the call it serves.
type pass struct {
	task  *serverTask
	start des.Time      // when the pass began, for its serve span
	tr    *trace.Tracer // the tracer when the pass began, which its spans go to
	next  func(*nfsd)
	hold  des.Duration

	callBytes                           []byte
	bulkInChk, staging, longChk, depChk *memreg.Chunk
	longSeg, longOff                    int // the long call's next read segment, and where it goes
	longTr                              *trace.Tracer
	dataLen, recvCap, room              int
	outLen, wireLen                     int
	pullStart                           des.Time
	reply, msg                          []byte
	bulkOut                             *oncrpc.Bulk
	rh                                  Header
	park                                parkedReply
	reserved                            bool

	bulkIn, replyBuf oncrpc.Bulk
	pushed           []Segment
	exposed          []ReadSeg
	send             ibsim.SendWQE
}

// newNFSD starts a thread of group sh running on wcpu. Its pass chain first
// waits for work where a process spawned here would start.
func newNFSD(sh *serverShard, wcpu int) {
	w := &nfsd{sh: sh, cpu: wcpu}
	sim := sh.srv.node.Sim()
	sim.AtArg(sim.Now(), nfsdIdle, w)
}

func nfsdIdle(a any) {
	w := a.(*nfsd)
	w.sh.workQ.WaitThen(nfsdWoken, w)
}

// nfsdWoken takes the next task. Picking a task enqueued by the shard's
// completion loop is itself a completion handoff, so it pays the affinity
// toll before any protocol work starts.
func nfsdWoken(a any) {
	w := a.(*nfsd)
	v, ok := w.sh.workQ.TryGet()
	if !ok {
		if !w.sh.workQ.Closed() {
			nfsdIdle(w) // another thread took it first
		}
		return
	}
	w.task = v.(*serverTask)
	w.sh.srv.migrateThen(&w.charge, w.task.conn, w.cpu, serveTask, w)
}

// then calls w.next, the step a wait was for.
func nfsdThen(a any) {
	w := a.(*nfsd)
	next := w.next
	w.next = nil
	next(w)
}

// serialThen takes the serialized section and holds it for d (the work done
// under it), then calls next; the pass releases it.
func (w *nfsd) serialThen(d des.Duration, next func(*nfsd)) {
	w.next, w.hold = next, d
	w.sh.srv.serial.AcquireThen(1, serialHeld, w)
}

func serialHeld(a any) {
	w := a.(*nfsd)
	s := w.sh.srv.node.Sim()
	s.AtArg(s.Now()+des.Time(max(w.hold, 0)), nfsdThen, w)
}

// work charges d of CPU, then calls next.
func (w *nfsd) work(d des.Duration, next func(*nfsd)) {
	w.next = next
	w.sh.srv.node.CPU.WorkThen(&w.charge, d, nfsdThen, w)
}

// interrupt charges the completion interrupt that ends a wait for the HCA,
// then the handoff to the thread's CPU, then calls next.
func (w *nfsd) interrupt(next func(*nfsd)) {
	w.next = next
	w.sh.srv.node.CPU.InterruptThen(&w.charge, nfsdInterrupted, w)
}

func nfsdInterrupted(a any) {
	w := a.(*nfsd)
	w.sh.srv.migrateThen(&w.charge, w.task.conn, w.cpu, nfsdThen, w)
}

// put puts c back, then calls next.
func (w *nfsd) put(c *memreg.Chunk, next func(*nfsd)) {
	w.next = next
	w.sh.srv.mgr.PutThen(&w.op, c, nfsdThen, w)
}

// serveTask begins the pass over w.task.
func serveTask(a any) {
	w := a.(*nfsd)
	s := w.sh.srv
	w.start, w.tr = s.node.Sim().Now(), s.node.Sim().Tracer()
	if w.task.conn.dead {
		// The connection died while this message sat in the work queue;
		// serving it would park a reply nothing can ever release.
		s.TasksDropped++
		passDone(w)
		return
	}
	s.Requests++
	w.work(s.cfg.PerOpCPU, callReceived)
}

// callReceived starts the receive path: a long call's body is pulled first.
func callReceived(w *nfsd) {
	s := w.sh.srv
	w.callBytes = w.task.body
	if w.task.hdr.Type != MsgNoMsg {
		pullBulk(w)
		return
	}
	// RPC Long Call: pull the message body advertised at position 0.
	s.LongCalls++
	n := w.task.hdr.readBytes(true)
	if n == 0 {
		passDone(w) // a NOMSG call without a position-0 chunk
		return
	}
	w.dataLen, w.pullStart, w.longTr = n, s.node.Sim().Now(), s.node.Sim().Tracer()
	s.mgr.GetThen(&w.op, n, ibsim.AccessLocalWrite, longStaged, w)
}

func longStaged(a any) {
	w := a.(*nfsd)
	w.longChk = w.op.Chunk()
	w.longSeg, w.longOff = 0, 0
	pullLongCall(w)
}

// pullLongCall reads the long call's next position-0 segment into its
// staging, one at a time: post, wait for the completion, charge its
// interrupt if it had to be waited for, and the handoff.
func pullLongCall(w *nfsd) {
	s, hdr := w.sh.srv, &w.task.hdr
	for ; w.longSeg < len(hdr.ReadList); w.longSeg++ {
		seg := hdr.ReadList[w.longSeg]
		if seg.Position != 0 {
			continue
		}
		w.longSeg++
		s.BulkReads++
		w.cs.reset()
		wqe := w.task.conn.qp.GetWQE()
		wqe.Op, wqe.RemoteKey, wqe.RemoteAddr = ibsim.OpRead, seg.Rkey, seg.Addr
		wqe.SetLocal(&w.longChk.Buf, w.longOff, int(seg.Length))
		w.longOff += int(seg.Length)
		w.cs.post(w, wqe)
		if w.cs.wait(longRead) {
			// Completed as it was posted (a QP in error): no interrupt.
			w.next = longMigrated
			w.sh.srv.migrateThen(&w.charge, w.task.conn, w.cpu, nfsdThen, w)
		}
		return
	}
	w.callBytes = append([]byte(nil), w.longChk.Data()[:w.dataLen]...)
	w.put(w.longChk, longPut)
}

func longRead(w *nfsd) { w.interrupt(longMigrated) }

func longMigrated(w *nfsd) {
	if w.cs.failed {
		// A connection-level failure; the QP is already in error.
		w.callBytes = nil
		w.put(w.longChk, longPut)
		return
	}
	pullLongCall(w)
}

func longPut(w *nfsd) {
	s := w.sh.srv
	w.longChk = nil
	if tr := w.longTr; tr != nil {
		tr.Span(int64(w.pullStart), int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindBulkRead, s.node.Name(),
			"long-call-read", w.task.conn.traceKey(w.task.hdr.XID), int64(w.dataLen))
	}
	if w.callBytes == nil {
		passDone(w)
		return
	}
	pullBulk(w)
}

// pullBulk pulls WRITE-class payload (read chunks at positions > 0). The
// thread waits for its RDMA Reads to complete: InfiniBand gives no ordering
// between a Read and a later Send, so there is no overlap to exploit (§4.1).
// The receive path — buffer allocation, registration, chunk pulls — runs
// under the serialized section when modelled; the synchronous RDMA Read wait
// is additionally held inside it when SerializeSyncRead is set.
func pullBulk(w *nfsd) {
	s := w.sh.srv
	w.dataLen = w.task.hdr.readBytes(false)
	if w.dataLen == 0 {
		replyStage(w)
		return
	}
	w.pullStart = s.node.Sim().Now()
	if s.serial != nil {
		w.serialThen(s.cfg.SerialBase, bulkStage)
		return
	}
	bulkStage(w)
}

func bulkStage(w *nfsd) {
	w.sh.srv.mgr.GetUnregisteredThen(&w.op, w.dataLen, ibsim.AccessLocalWrite, bulkStaged, w)
}

func bulkStaged(a any) {
	w := a.(*nfsd)
	w.bulkInChk = w.op.Chunk()
	// Registration must precede the DMA.
	w.sh.srv.mgr.RegisterChunkThen(&w.op, w.bulkInChk, w.dataLen, bulkRegistered, w)
}

func bulkRegistered(a any) {
	w := a.(*nfsd)
	s, hdr := w.sh.srv, &w.task.hdr
	w.cs.reset()
	off := 0
	for _, seg := range hdr.ReadList {
		if seg.Position == 0 {
			continue
		}
		s.BulkReads++
		wqe := w.task.conn.qp.GetWQE()
		wqe.Op, wqe.RemoteKey, wqe.RemoteAddr = ibsim.OpRead, seg.Rkey, seg.Addr
		wqe.SetLocal(&w.bulkInChk.Buf, off, int(seg.Length))
		w.cs.post(w, wqe)
		off += int(seg.Length)
	}
	if s.serial != nil && !s.cfg.SerializeSyncRead {
		s.serial.Release(1)
	}
	if w.cs.wait(bulkRead) {
		bulkRead(w)
	}
}

// bulkRead runs once every Read completed: the completion that unblocks the
// thread, the handoff, then the section is left.
func bulkRead(w *nfsd) { w.interrupt(bulkPulled) }

func bulkPulled(w *nfsd) {
	s := w.sh.srv
	if s.serial != nil && s.cfg.SerializeSyncRead {
		s.serial.Release(1)
	}
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Span(int64(w.pullStart), int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindBulkRead, s.node.Name(),
			"bulk-read", w.task.conn.traceKey(w.task.hdr.XID), int64(w.dataLen))
	}
	if w.cs.failed {
		w.put(w.bulkInChk, passDone)
		return
	}
	var data []byte
	if d := w.bulkInChk.Data(); d != nil {
		data = d[:w.dataLen]
	}
	w.bulkIn = oncrpc.Bulk{Data: data, Len: w.dataLen, Handle: &w.bulkInChk.Buf}
	replyStage(w)
}

// replyStage allocates reply-payload staging on the receive path; it is
// registered when control returns from the file system (§4.3, Figure 1).
func replyStage(w *nfsd) {
	s := w.sh.srv
	for _, seg := range w.task.hdr.WriteList {
		w.recvCap += int(seg.Length)
	}
	if s.cfg.Design == ReadRead {
		w.recvCap = maxBulk
	}
	if w.recvCap == 0 {
		dispatch(w)
		return
	}
	s.mgr.GetUnregisteredThen(&w.op, w.recvCap, s.replyAccess(), replyStaged, w)
}

func replyStaged(a any) {
	w := a.(*nfsd)
	w.staging = w.op.Chunk()
	w.replyBuf = oncrpc.Bulk{Data: w.staging.Data(), Len: 0, Handle: &w.staging.Buf}
	if w.replyBuf.Data != nil && w.recvCap < len(w.replyBuf.Data) {
		w.replyBuf.Data = w.replyBuf.Data[:w.recvCap]
	}
	dispatch(w)
}

// dispatch hands the call to the file system through the RPC layer.
func dispatch(w *nfsd) {
	s, hdr := w.sh.srv, &w.task.hdr
	peer := w.task.conn.peerName
	if s.cfg.TrustCredDRC {
		peer = "" // fall back to the forgeable credential machine name
	}
	// The reply is built behind room for its header: the write list echoed
	// back (Read-Write, Reply-Fetch), or one exposed read segment (an
	// estimate: Read-Read knows what it exposes only once it has the data).
	w.room = hdrBase + segSize*len(hdr.WriteList)
	if s.cfg.Design == ReadRead {
		w.room = hdrBase + readSegSize
	}
	opts := oncrpc.DispatchOpts{RecvBulkCap: w.recvCap, Room: w.room, Peer: peer}
	if w.bulkInChk != nil {
		opts.Bulk = &w.bulkIn
	}
	if w.staging != nil {
		opts.ReplyBuf = &w.replyBuf
	}
	s.dispatcher.DispatchThen(s.node.Sim(), &w.st, w.callBytes, opts, dispatched, w)
}

func dispatched(a any) {
	w := a.(*nfsd)
	w.reply, w.bulkOut = w.st.Reply, w.st.Bulk
	w.st = oncrpc.Serving{}
	if w.bulkInChk != nil {
		w.put(w.bulkInChk, replyPath)
		return
	}
	replyPath(w)
}

// replyPath is the return path, one skeleton for all three designs: header
// and credit grant, reply-slot reservation, the serialized send section,
// bulk placement, message placement, post, park or release. The design
// decides only how the bulk is placed (pushed into the client's write list
// or exposed as read chunks), how the message travels (inline or long-reply
// chunk, exposed read chunk, or slot deposit) and what is posted (a Send the
// thread waits on, or two Writes it does not).
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
// is placed, so NO Send is posted and the thread never waits for a
// completion interrupt: the entire send-processing + interrupt cost of the
// reply path disappears from the server. The deposit staging stays parked
// until the client's RDMA_DONE confirms it read the slot (same recycle flow
// as Read-Read).
func replyPath(w *nfsd) {
	w.bulkInChk = nil
	s, conn, call := w.sh.srv, w.task.conn, &w.task.hdr
	if w.reply == nil {
		// Not a call (the dispatcher counts it; a call it denies comes with
		// its MSG_DENIED reply, sent below like any other), or a duplicate of
		// a call still executing that the dispatcher suppressed (DRC
		// in-progress entry) — the original execution will produce the
		// reply; this copy just drops.
		w.putStaging(passDone)
		return
	}
	design := s.cfg.Design
	w.msg = w.reply[w.room:]
	w.rh = Header{XID: call.XID, Credits: s.advertiseCredits(conn), Type: MsgRDMA}
	if design == ReplyFetch && len(call.ReplyChunk) == 0 {
		// No slot advertised: an RFP reply is undeliverable.
		w.putStaging(passDone)
		return
	}
	if w.bulkOut != nil {
		w.outLen = w.bulkOut.Len
	}
	// Reserve the reply-buffer slot BEFORE the serialized send path: a
	// blocked reservation (pool exhausted by unacknowledged replies) must
	// wait in this thread only, never hold up the whole send path. Every RFP
	// reply parks its deposit staging; a Read-Read reply parks whatever it
	// exposes — bulk, or a message over the inline threshold.
	w.reserved = design == ReplyFetch || design == ReadRead && (w.outLen > 0 || len(w.msg) > s.cfg.InlineThreshold)
	if w.reserved {
		conn.slots().AcquireThen(1, replyReserved, w)
		return
	}
	replyReserved(w)
}

// putStaging puts the reply staging back, if any, then calls next.
func (w *nfsd) putStaging(next func(*nfsd)) {
	c := w.staging
	if c == nil {
		next(w)
		return
	}
	w.staging = nil
	w.put(c, next)
}

func replyReserved(a any) {
	w := a.(*nfsd)
	s := w.sh.srv
	if s.cfg.Design == ReplyFetch {
		// A duplicate of a call on one connection (which only a hostile peer
		// sends: a client retransmits on a new connection) can deposit again
		// while the first deposit still sits parked. Retire the stale park
		// first — one DONE will arrive for this XID at most, and it must
		// release the fresh deposit, not leak it.
		key := connXID{w.task.conn, w.task.hdr.XID}
		if _, ok := s.parked[key]; ok {
			s.RepliesDeclined++
		}
		w.rel.releaseParked(s, key, nfsdReleased, w)
		return
	}
	replySerial(w)
}

func nfsdReleased(a any) { replySerial(a.(*nfsd)) }

// replySerial enters the send path — reply marshalling, registration on
// return from the file system, push posting — which runs under the
// serialized section.
func replySerial(w *nfsd) {
	s := w.sh.srv
	if s.serial != nil {
		w.serialThen(s.cfg.serialHold(w.outLen), placeBulk)
		return
	}
	placeBulk(w)
}

// placeBulk exposes the bulk (Read-Read) or pushes it (Read-Write,
// Reply-Fetch); registration happens now — on return from the file system —
// which is what makes the slab cache's hit path free.
func placeBulk(w *nfsd) {
	s, call := w.sh.srv, &w.task.hdr
	switch {
	case w.outLen == 0:
	case s.cfg.Design == ReadRead:
		if w.staging != nil {
			// Registration exposes the buffer (RemoteRead).
			s.mgr.RegisterChunkThen(&w.op, w.staging, w.outLen, bulkExposed, w)
			return
		}
	case len(call.WriteList) > 0:
		if w.staging != nil {
			s.mgr.RegisterChunkThen(&w.op, w.staging, w.outLen, bulkPush, w)
			return
		}
		bulkPush(w)
		return
	}
	bulkPlaced(w)
}

func bulkExposed(a any) {
	w := a.(*nfsd)
	w.exposed = appendReadSegs(w.exposed[:0], uint32(len(w.msg)), w.staging.Reg, w.outLen)
	w.rh.ReadList = w.exposed
	w.park.add(w.staging)
	w.staging = nil
	bulkPlaced(w)
}

func bulkPush(a any) {
	w := a.(*nfsd)
	s, conn, call := w.sh.srv, w.task.conn, &w.task.hdr
	pushed, residual := s.pushBulk(w, conn, &w.staging.Buf, w.outLen, call.WriteList)
	if residual > 0 {
		// The client's advertised write chunks cannot hold the payload.
		// The annotated WriteList already tells the client how much
		// landed; count the truncation so it is visible server-side too.
		s.shortWrite(conn, call.XID, residual)
	}
	w.rh.WriteList = pushed
	if s.cfg.Design == ReplyFetch {
		// No send completion will say the Writes are placed; the DONE does.
		w.park.add(w.staging)
		w.staging = nil
	}
	bulkPlaced(w)
}

func bulkPlaced(w *nfsd) {
	if w.sh.srv.cfg.Design == ReplyFetch {
		w.putStaging(placeMessage) // no payload produced; release unregistered
		return
	}
	placeMessage(w)
}

// placeMessage sends the message inline, as a long-reply chunk, or as a slot
// deposit.
func placeMessage(w *nfsd) {
	s, conn, call, design := w.sh.srv, w.task.conn, &w.task.hdr, w.sh.srv.cfg.Design
	switch {
	case design == ReplyFetch:
		w.wireLen = w.rh.wireSize() + len(w.msg)
		if over := w.wireLen + doorbellBytes - int(call.ReplyChunk[0].Length); over > 0 {
			// The reply outgrew the client's slot; it cannot be delivered. The
			// client's call timer ends the connection and the replay on a new
			// one hits the DRC — same terminal behaviour as an undeliverable
			// long reply.
			s.shortWrite(conn, call.XID, over)
			w.rel.dropReply(s, conn, w.park, replyUnsent, w)
			return
		}
		// Stage the deposit: [doorbell word | header | message] in one
		// local-only chunk (protocol staging is materialized, so the bytes
		// really cross), the message copied behind the header's room.
		s.mgr.GetThen(&w.op, doorbellBytes+w.wireLen, ibsim.AccessLocalWrite, depositStaged, w)
		return
	case len(w.msg) <= s.cfg.InlineThreshold:
		// Inline reply.
	case design == ReadRead && len(w.msg) <= s.cfg.recvBufSize():
		// Oversized-but-deliverable reply: the posted receives carry
		// headroom beyond the threshold, so send it inline.
	case design == ReadWrite && len(call.ReplyChunk) == 0:
		// Slightly oversized reply with no reply chunk advertised: the
		// posted receives carry headroom beyond the threshold, so squeeze
		// it inline rather than dropping the call. Truly oversized replies
		// without placement cannot be delivered.
		if len(w.msg) > s.cfg.recvBufSize() {
			if s.serial != nil {
				s.serial.Release(1)
			}
			w.putStaging(passDone)
			return
		}
	default:
		// RPC Long Reply: the whole message travels as a chunk under NOMSG —
		// written into the client's reply chunk (Read-Write) or exposed for
		// the client to read (Read-Read).
		s.LongReplies++
		s.mgr.GetThen(&w.op, len(w.msg), s.replyAccess(), longReplyStaged, w)
		return
	}
	messagePlaced(w)
}

// replyUnsent ends the pass of a reply dropped before it was posted.
func replyUnsent(a any) {
	w := a.(*nfsd)
	w.park = parkedReply{}
	if s := w.sh.srv; s.serial != nil {
		s.serial.Release(1)
	}
	passDone(w)
}

func depositStaged(a any) {
	w := a.(*nfsd)
	w.depChk = w.op.Chunk()
	if d := w.depChk.Data(); d != nil {
		binary.LittleEndian.PutUint64(d[:doorbellBytes], uint64(w.wireLen)+1)
		copy(d[doorbellBytes+w.rh.wireSize():], w.msg)
		w.rh.frame(d[doorbellBytes:doorbellBytes+w.wireLen], w.rh.wireSize())
	}
	w.work(w.sh.srv.node.CPU.CopyCost(w.wireLen), depositCopied)
}

func depositCopied(w *nfsd) {
	s := w.sh.srv
	s.Deposits++
	if tr := s.node.Sim().Tracer(); tr != nil {
		tr.Instant(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindBulkWrite, s.node.Name(), "deposit",
			w.task.conn.traceKey(w.task.hdr.XID), int64(w.wireLen))
	}
	w.park.add(w.depChk)
	messagePlaced(w)
}

func longReplyStaged(a any) {
	w := a.(*nfsd)
	w.longChk = w.op.Chunk()
	if d := w.longChk.Data(); d != nil {
		copy(d, w.msg)
	}
	w.work(w.sh.srv.node.CPU.CopyCost(len(w.msg)), longReplyCopied)
}

func longReplyCopied(w *nfsd) {
	s, conn, call := w.sh.srv, w.task.conn, &w.task.hdr
	w.rh.Type = MsgNoMsg
	if s.cfg.Design == ReadRead {
		// A NOMSG reply carries only itself.
		w.exposed = appendReadSegs(w.exposed[:0], 0, w.longChk.Reg, len(w.msg))
		w.rh.ReadList = w.exposed
		w.park.add(w.longChk)
		w.longChk = nil
	} else {
		var residual int
		w.rh.ReplyChunk, residual = s.pushBulk(w, conn, &w.longChk.Buf, len(w.msg), call.ReplyChunk)
		if residual > 0 {
			s.shortWrite(conn, call.XID, residual)
		}
	}
	w.reply, w.room = nil, 0 // the Send carries the header alone
	messagePlaced(w)
}

func messagePlaced(w *nfsd) {
	if w.sh.srv.cfg.Design == ReadRead {
		w.putStaging(post) // no payload produced; release unregistered
		return
	}
	post(w)
}

// post posts the reply (a Send, or a deposit's two Writes) and parks or
// releases what it holds.
func post(w *nfsd) {
	s, conn, call := w.sh.srv, w.task.conn, &w.task.hdr
	if s.cfg.Design == ReplyFetch {
		// Body first, doorbell last: the QP launches these in order and the
		// port serializes their data, so the doorbell can only land after the
		// reply (and any bulk pushed above) is already in client memory.
		slot := call.ReplyChunk[0]
		conn.write(uint64(call.XID), &w.depChk.Buf, doorbellBytes, w.wireLen, slot.Rkey, slot.Addr+doorbellBytes)
		conn.write(uint64(call.XID), &w.depChk.Buf, 0, doorbellBytes, slot.Rkey, slot.Addr)
		w.depChk = nil
		if s.serial != nil {
			s.serial.Release(1)
		}
		w.parkReply(passDone)
		return
	}
	if _, ok := s.parked[connXID{conn, call.XID}]; ok && w.park.n > 0 {
		// A duplicate call's reply while the first is still parked (only a
		// hostile peer sends a duplicate on one connection): the client reads
		// that one, or releases it unread, with the one DONE it
		// sends for this XID. Parking this one over it would leave the first
		// parked, and exposed, for good; so it is not sent.
		s.RepliesDeclined++
		w.rel.dropReply(s, conn, w.park, replyUnsent, w)
		return
	}
	w.parkReply(postSend)
}

func postSend(w *nfsd) {
	s := w.sh.srv
	w.send = ibsim.SendWQE{Op: ibsim.OpSend, Payload: w.rh.frame(w.reply, w.room)}
	w.cs.reset()
	w.cs.post(w, &w.send)
	if s.serial != nil {
		s.serial.Release(1) // posting done; the wire drains without the lock
	}
	if w.cs.wait(replySent) {
		replySent(w)
	}
}

// replySent runs once the Send completed: its interrupt, the handoff, then
// — the completion says prior RDMA Writes are placed — deregistration and
// release of whatever Read-Write still holds (Read-Read parked or freed it
// all).
func replySent(w *nfsd) { w.interrupt(replyReleased) }

func replyReleased(w *nfsd) { w.putStaging(putLongReply) }

func putLongReply(w *nfsd) {
	c := w.longChk
	if c == nil {
		passDone(w)
		return
	}
	w.longChk = nil
	w.put(c, passDone)
}

// parkReply pins a built reply's chunks until the client's RDMA_DONE, or
// settles the reservation when there is nothing (or no one) to park for,
// then calls next.
func (w *nfsd) parkReply(next func(*nfsd)) {
	s, conn, xid, pr := w.sh.srv, w.task.conn, w.task.hdr.XID, w.park
	w.park = parkedReply{}
	switch {
	case pr.n > 0 && conn.dead:
		// The connection died while this reply was being built: no DONE can
		// ever release it, so free the buffers and the slot immediately
		// instead of parking (the leak this lifecycle state machine closes).
		w.next = next
		w.rel.dropReply(s, conn, pr, nfsdThen, w)
		return
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
			tr.Begin(int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindParked, s.node.Name(), "parked",
				conn.traceKey(xid), int64(pr.n))
		}
	case w.reserved:
		// Reserved but nothing ended up parked (e.g. squeezed inline).
		conn.slots().Release(1)
	}
	next(w)
}

// passDone ends the pass: the serve span on the group's track (a trace
// viewer shows per-shard dispatch balance as separate rows), the task back
// to the group, and the thread idle again, pinning no wire message, staging
// buffer or payload.
func passDone(w *nfsd) {
	s, task := w.sh.srv, w.task
	if tr := w.tr; tr != nil {
		tr.Span(int64(w.start), int64(s.node.Sim().Now()), trace.LayerRPC, trace.KindServe, w.sh.track,
			task.hdr.Type.String(), task.conn.traceKey(task.hdr.XID), 0)
	}
	w.sh.putTask(task)
	pushed, exposed := w.pushed[:0], w.exposed[:0]
	w.pass = pass{}
	w.pushed, w.exposed = pushed, exposed
	w.cs.reset()
	nfsdIdle(w)
}

// completions is a chain's wait for the work requests it posted, in posting
// order, as a process waiting on each one's Done event in turn would: it is
// woken where such a process would resume — by the completion of the request
// it waits for, if that was not complete already — and not by another's.
type completions struct {
	done    []bool // by request, in posting order
	next    int    // the request waited for
	waiting bool
	failed  bool // a request completed with an error
	then    func(*nfsd)
}

func (cs *completions) reset() {
	*cs = completions{done: cs.done[:0]}
}

// post posts wqe toward w's connection, signalled to nobody but cs.
func (cs *completions) post(w *nfsd, wqe *ibsim.SendWQE) {
	wqe.WRID = uint64(len(cs.done))
	wqe.OnDone, wqe.OnDoneArg = completed, w
	cs.done = append(cs.done, false)
	w.task.conn.post(wqe)
}

func completed(a any, c *ibsim.CQE) {
	w := a.(*nfsd)
	cs := &w.cs
	i := int(c.WRID)
	cs.done[i] = true
	if c.Err != nil {
		cs.failed = true
	}
	if cs.waiting && i == cs.next {
		cs.waiting = false
		s := w.sh.srv.node.Sim()
		s.AtArg(s.Now(), completionsWoken, w)
	}
}

// wait waits for every request posted: it reports true when they are all
// complete already, and otherwise calls then once they are.
func (cs *completions) wait(then func(*nfsd)) bool {
	for cs.next < len(cs.done) && cs.done[cs.next] {
		cs.next++
	}
	if cs.next == len(cs.done) {
		return true
	}
	cs.then, cs.waiting = then, true
	return false
}

func completionsWoken(a any) {
	w := a.(*nfsd)
	if then := w.cs.then; w.cs.wait(then) {
		w.cs.then = nil
		then(w)
	}
}
