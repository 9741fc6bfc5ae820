package ibsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"repro/internal/des"
)

// noReuse is the simulation kernel's test hook: set, every des.FreeList
// drops what is put back, so every Get allocates.
//
//go:linkname noReuse repro/internal/des.noReuse
var noReuse bool

// TestEngineGoldenWithoutReuse: the fabric's completion log is the same when
// no work request or completion is ever reused — reuse is unobservable.
func TestEngineGoldenWithoutReuse(t *testing.T) {
	noReuse = true
	defer func() { noReuse = false }()
	TestEngineGolden(t)
}

// panicOf runs fn and returns what it panicked with, as text.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// A pooled Write whose completion nobody can see goes back to the fabric as
// it completes: zeroed, so that it pins neither its buffer nor its QP, and
// the next GetWQE hands out that same request. A request built by the caller
// or one whose completion is observable never gets there.
func TestPooledWQERecycledZeroed(t *testing.T) {
	sim, fab, a, b, qa, _ := testPair(t, true)
	src, dst := a.Mem.Alloc(4096), b.Mem.Alloc(4096)
	fill(src, 5)
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
		w := qa.GetWQE()
		w.Op, w.RemoteKey, w.RemoteAddr = OpWrite, mr.Rkey(), mr.Start()
		w.SetLocal(src, 0, 4096)
		qa.PostSend(w)
		// Two that must not be recycled, posted behind it: the caller's own,
		// and a pooled one with a Done.
		own := &SendWQE{Op: OpWrite, RemoteKey: mr.Rkey(), RemoteAddr: mr.Start()}
		own.SetLocal(src, 0, 4096)
		qa.PostSend(own)
		waited := qa.GetWQE()
		waited.Op, waited.RemoteKey, waited.RemoteAddr = OpWrite, mr.Rkey(), mr.Start()
		waited.SetLocal(src, 0, 4096)
		if cqe := qa.PostAndWait(p, waited); cqe.Err != nil || cqe.Bytes != 4096 || cqe != &waited.cqe {
			t.Errorf("waited write: cqe %+v, want 4096 bytes, no error, held in the request", cqe)
		}
		if len(fab.freeWQEs) != 1 || fab.freeWQEs[0] != w {
			t.Fatalf("free list holds %d requests, want exactly the unobserved pooled write", len(fab.freeWQEs))
		}
		if want := (SendWQE{state: wqeFree}); !reflect.DeepEqual(*w, want) {
			t.Errorf("recycled request = %+v, want zeroed", *w)
		}
		if again := qa.GetWQE(); again != w || again.state != wqeIdle || len(fab.freeWQEs) != 0 {
			t.Errorf("GetWQE did not hand the recycled request back out")
		}
	})
	sim.Run()
	if got := dst.Bytes(0, 4096); string(got) != string(src.Bytes(0, 4096)) {
		t.Fatal("write through an inline one-segment gather list did not move the bytes")
	}
}

// Posting a request the fabric still owns, or one that has gone back to the
// free list, is a bug in the caller and panics naming the opcode and the QP.
func TestPostSendOfBusyOrFreedWQEPanics(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, false)
	src, dst := a.Mem.Alloc(4096), b.Mem.Alloc(4096)
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
		own := &SendWQE{Op: OpWrite, RemoteKey: mr.Rkey(), RemoteAddr: mr.Start()}
		own.SetLocal(src, 0, 4096)
		qa.PostSend(own)
		msg := panicOf(func() { qa.PostSend(own) })
		for _, want := range []string{"RDMA_WRITE", "client/qp", "in flight"} {
			if !strings.Contains(msg, want) {
				t.Errorf("second PostSend of an in-flight request panicked with %q, want it to name %q", msg, want)
			}
		}
		pooled := qa.GetWQE()
		pooled.Op, pooled.RemoteKey, pooled.RemoteAddr = OpWrite, mr.Rkey(), mr.Start()
		pooled.SetLocal(src, 0, 4096)
		qa.PostSend(pooled)
		p.Sleep(time.Millisecond) // both complete; pooled is on the free list now
		pooled.Op = OpRead
		msg = panicOf(func() { qa.PostSend(pooled) })
		for _, want := range []string{"RDMA_READ", "client/qp", "free list"} {
			if !strings.Contains(msg, want) {
				t.Errorf("PostSend of a freed request panicked with %q, want it to name %q", msg, want)
			}
		}
		// The caller's own request is its own again once completed.
		if msg := panicOf(func() { qa.PostSend(own) }); msg != "" {
			t.Errorf("PostSend of a completed caller-built request panicked: %s", msg)
		}
	})
	sim.Run()
}

// The contract of CQ.Wait and Poll: a completion is valid until the next Wait
// or Poll on that CQ. A consumer that keeps one across the next call (here a
// second consumer on the same CQ, which is the misuse) finds it zeroed — not
// showing another message's payload — and the CQ reuses what it took back for
// the completions after that.
func TestRecvCQEValidUntilNextWait(t *testing.T) {
	sim, _, _, _, qa, qb := testPair(t, true)
	sim.Spawn("server", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			qb.PostRecv(uint64(i), 1024)
		}
		first := qb.RecvCQ.Wait(p)
		payload := first.Payload // what a consumer keeps, it copies out
		if string(payload) != "one" || first.WRID != 0 || first.QP != qb {
			t.Fatalf("first completion = %+v", first)
		}
		p.Sleep(100 * time.Microsecond) // "two" has arrived
		second, ok := qb.RecvCQ.Poll()  // the misuse: first is still held
		if !ok || string(second.Payload) != "two" {
			t.Fatalf("second completion = %+v, %v", second, ok)
		}
		if !reflect.DeepEqual(*first, CQE{}) {
			t.Errorf("completion kept across the next Poll = %+v, want zeroed", *first)
		}
		if string(payload) != "one" {
			t.Errorf("payload copied out of the first completion now reads %q", payload)
		}
		if len(qb.RecvCQ.free) != 1 || qb.RecvCQ.free[0] != first {
			t.Fatalf("CQ free list = %d entries, want the released completion", len(qb.RecvCQ.free))
		}
		third := qb.RecvCQ.Wait(p)
		if string(third.Payload) != "three" {
			t.Fatalf("third completion = %+v", third)
		}
		if third != second || !reflect.DeepEqual(*first, CQE{}) {
			t.Errorf("the completion after a release did not reuse the entry released last (LIFO)")
		}
	})
	sim.Spawn("client", func(p *des.Proc) {
		for _, msg := range []string{"one", "two"} {
			qa.PostSend(&SendWQE{Op: OpSend, Payload: []byte(msg)})
		}
		p.Sleep(time.Millisecond) // after the server released the first
		qa.PostSend(&SendWQE{Op: OpSend, Payload: []byte("three")})
	})
	sim.Run()
}
