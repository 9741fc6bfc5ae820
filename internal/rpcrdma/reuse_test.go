package rpcrdma

import (
	"bytes"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// freeLists is the length of every free list a server run fills: the fabric's
// work requests, per shard its tasks and its CQ's receive completions, the
// dispatcher's requests, and the staging chunks every Manager keeps.
type freeLists struct{ wqes, tasks, cqes, requests, chunks int }

func (e *scaleEnv) freeLists() freeLists {
	fl := freeLists{wqes: e.fab.FreeWQEs(), requests: e.disp.FreeRequests()}
	for _, m := range e.mgrs {
		fl.chunks += m.FreeChunks()
	}
	groups := e.st.shards
	if e.st.legacy != nil {
		groups = append(groups, e.st.legacy)
	}
	for _, sh := range groups {
		fl.tasks += len(sh.free)
		if sh.cq != nil {
			fl.cqes += sh.cq.FreeCQEs()
		}
	}
	return fl
}

// A free list holds what was in flight at once and nothing more: an object is
// made only when the list is empty, that is when every one made before is in
// use. After a 2048-deep Reply-Fetch burst has drained the lists are therefore
// no longer than the burst was deep — a task per call, a receive completion
// per call and per RDMA_DONE, a request per call Send, deposit Write pair and
// DONE, a dispatcher request per worker (only a worker's call is in its
// handler), and under all-physical registration a chunk per call's reply
// slot and per its deposit (Regular chunks are never reused) — and a second
// identical burst runs entirely on what the first left: no list grows. What
// waits on a list is zeroed, so it pins no connection, wire message or
// buffer meanwhile.
func TestFreeListsBoundedByBurstDepth(t *testing.T) {
	for _, mode := range []memreg.Mode{memreg.Regular, memreg.AllPhysical} {
		t.Run(mode.String(), func(t *testing.T) { testFreeListsBoundedByBurstDepth(t, mode) })
	}
}

func testFreeListsBoundedByBurstDepth(t *testing.T, mode memreg.Mode) {
	const clients, depth = 64, 32 // 2048 calls in flight at once
	cfg := Config{Design: ReplyFetch, Workers: 4, Shards: 2}
	sim := des.New()
	e := newScaleEnv(sim, clients)
	e.mode = mode
	sim.Spawn("setup", func(p *des.Proc) {
		e.startServer(p, cfg)
		var rpcs []*oncrpc.Client
		for i := 0; i < clients; i++ {
			_, rpc, _, ok := e.dial(p, i, cfg)
			if !ok {
				t.Fatalf("dial %d rejected", i)
			}
			rpcs = append(rpcs, rpc)
		}
		burst := func() {
			returned, all := 0, des.NewEvent(sim)
			for _, rpc := range rpcs {
				for j := 0; j < depth; j++ {
					sim.Spawn("caller", func(cp *des.Proc) {
						if res, _, err := rpc.Call(cp, 4, raw([]byte("ping")), oncrpc.CallOpts{}); err != nil || string(res) != "ping" {
							t.Errorf("echo: %q, %v", res, err)
						}
						if returned++; returned == clients*depth {
							all.Fire(nil)
						}
					})
				}
			}
			all.Wait(p)
			p.Sleep(time.Millisecond) // the last RDMA_DONEs and acknowledgements land
		}
		burst()
		first := e.freeLists()
		queued := 0
		for _, st := range e.st.ShardStats() {
			queued += st.MaxQueueDepth
		}
		if queued < clients*depth/2 {
			t.Fatalf("work queues peaked at %d tasks in all: not the %d-deep burst this test is about", queued, clients*depth)
		}
		if max := (freeLists{wqes: 4 * clients * depth, tasks: queued + cfg.Workers + 2*cfg.Shards, cqes: 2 * clients * depth, requests: cfg.Workers, chunks: 2 * clients * depth}); first.wqes > max.wqes || first.tasks > max.tasks || first.cqes > max.cqes || first.requests > max.requests || first.chunks > max.chunks ||
			first.wqes == 0 || first.tasks == 0 || first.cqes == 0 || first.requests == 0 || (first.chunks == 0) != (mode == memreg.Regular) {
			t.Errorf("free lists after the burst = %+v, want each used (chunks only if reused) and at most the peak in flight %+v", first, max)
		}
		burst()
		if second := e.freeLists(); second != first {
			t.Errorf("free lists after a second identical burst = %+v, after the first %+v: they grew", second, first)
		}
		for _, sh := range e.st.shards {
			for _, task := range sh.free {
				if task.conn != nil || task.body != nil || len(task.hdr.ReadList)+len(task.hdr.WriteList)+len(task.hdr.ReplyChunk) != 0 ||
					!reflect.DeepEqual(task.hdr, Header{ReadList: task.hdr.ReadList, WriteList: task.hdr.WriteList, ReplyChunk: task.hdr.ReplyChunk}) {
					t.Fatalf("task on the free list = %+v, want zeroed but for its lists' capacity", *task)
				}
			}
		}
	})
	sim.Run()
}

// TestPendingFitsItsSizeClass pins a pending at 472 bytes: on its own (a
// replay's) in the allocator's 480-byte size class, and inside a call
// (TestCallFillsItsSizeClass) what keeps that one class. One more field, or a
// larger store, costs every call the next class, so what goes in must come
// out of padding or another field.
func TestPendingFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(pending{}); n != 472 {
		t.Errorf("a pending is %d bytes, want 472", n)
	}
}

// A second reply to a call on one connection — which only a hostile peer
// sends, since a client retransmits only on a new connection — serves no
// call. Here it arrives, through the server's queue pair, while the first
// reply's pull is reading the chunk list kept in the call's pending (an
// all-physical 256 KiB READ: many short Reads, between which the second is
// received): it is counted as stray and pulls nothing, the first reply's
// header stays what it was, the call completes with the right bytes, and the
// call's one RDMA_DONE is the only one sent. The second reply is the first
// one's, its chunks exposed from another server buffer holding the same
// bytes.
func TestDuplicateReplyDuringPullKeepsFirstHeader(t *testing.T) {
	const size = 256 << 10
	newEnv(t, ReadRead, memreg.AllPhysical, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(size, 3)
		e.sim.Spawn("probe", func(pp *des.Proc) {
			smgr := memreg.NewManager(pp, e.server, memreg.Config{Mode: memreg.AllPhysical})
			copyChk := smgr.Get(pp, size, ibsim.AccessRemoteRead)
			copy(copyChk.Data(), e.svc.stored)
			var pend *pending
			for pend == nil || pend.handling == 0 {
				if pp.Sleep(time.Microsecond); pp.Now() > des.Time(time.Millisecond) {
					t.Error("no reply pulled within 1 ms")
					return
				}
				for _, pend = range e.ct.pending {
				}
			}
			first := append([]ReadSeg(nil), pend.reply.hdr.ReadList...)
			if len(first) < 2 {
				t.Fatalf("first reply's read list %v: not the race this test is about", first)
			}
			dup := pend.reply.hdr
			dup.ReadList = appendReadSegs(nil, first[0].Position, copyChk.Reg, size)
			e.st.conns[0].post(&ibsim.SendWQE{Op: ibsim.OpSend, Payload: dup.frame(append(make([]byte, dup.wireSize()), pend.reply.body...), dup.wireSize())})
			for e.ct.StrayReplies == 0 && pend.handling > 0 {
				pp.Sleep(100 * time.Nanosecond)
			}
			if e.ct.StrayReplies != 1 || pend.handling != 1 {
				t.Errorf("%d stray replies, %d pulls running after a second reply was received during the first's: want 1 and 1", e.ct.StrayReplies, pend.handling)
			}
			if got := pend.reply.hdr.ReadList; !reflect.DeepEqual(got, first) {
				t.Errorf("first reply's read list is %v with the second reply received, was %v", got, first)
			}
		})
		dst := &oncrpc.Bulk{Data: make([]byte, size), Len: size}
		if _, n, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != size || !bytes.Equal(dst.Data, e.svc.stored) {
			t.Errorf("GET during which a second reply arrived: n=%d err=%v, bytes equal %v", n, err, bytes.Equal(dst.Data, e.svc.stored))
		}
		p.Sleep(time.Millisecond)
		if e.ct.DoneSent != 1 || e.st.ParkedReplies() != 0 || e.st.DoneRejected != 0 {
			t.Errorf("%d DONEs sent, %d replies parked, %d DONEs rejected: want the call's one DONE to release its reply", e.ct.DoneSent, e.st.ParkedReplies(), e.st.DoneRejected)
		}
	})
}

// The first reply to a call decodes its chunk lists into the call's own
// stores; a second one, received before the first one's handler has run,
// must not decode into them too. Both replies here carry a one-segment write
// list, which fits the store, and are sent back to back through the
// server's queue pair.
func TestSecondReplyKeepsFirstRepliesLists(t *testing.T) {
	newEnv(t, ReadWrite, memreg.Regular, func(p *des.Proc, e *env) {
		const xid = 77
		pend := &pending{t: e.ct}
		pend.done.Init(e.sim)
		e.ct.pending[xid] = pend
		reply := func(rkey uint32) []byte {
			h := Header{XID: xid, Credits: 1, Type: MsgRDMA, WriteList: []Segment{{Rkey: rkey, Length: 8, Addr: 0x1000}}}
			return h.frame(append(make([]byte, h.wireSize()), oncrpc.EncodeReply(xid, oncrpc.Success, nil)...), h.wireSize())
		}
		e.st.conns[0].post(&ibsim.SendWQE{Op: ibsim.OpSend, Payload: reply(1)})
		e.st.conns[0].post(&ibsim.SendWQE{Op: ibsim.OpSend, Payload: reply(2)})
		p.Sleep(100 * time.Microsecond)
		if got := pend.reply.hdr.WriteList; len(got) != 1 || &got[0] != &pend.segStore[0] || got[0].Rkey != 1 {
			t.Errorf("the first reply's write list is %v, in the call's store %v: want the first reply's, kept there", got, len(got) > 0 && &got[0] == &pend.segStore[0])
		}
		if !pend.done.Fired() || pend.res.BulkLen != 8 || e.ct.StrayReplies != 1 || e.ct.DoneSent != 0 {
			t.Errorf("call completed %v with %d bulk bytes, %d stray replies, %d DONEs: want the first reply to complete it, the second counted and no DONE",
				pend.done.Fired(), pend.res.BulkLen, e.ct.StrayReplies, e.ct.DoneSent)
		}
		delete(e.ct.pending, xid)
	})
}
