package ibsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
)

func TestCQPollVsWaitInterrupts(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	a.Config() // silence unused warning paths
	_ = b
	sim.Spawn("p", func(p *des.Proc) {
		// Polling an empty CQ returns immediately with no interrupt.
		if _, ok := qa.SendCQ.Poll(); ok {
			t.Error("poll on empty CQ returned an entry")
		}
		before := a.CPU.Interrupts()
		qa.PostSend(&SendWQE{WRID: 1, Op: OpSend, Payload: []byte("x"), Signaled: true})
		qa.Peer().PostRecv(1, 64)
		cqe := qa.SendCQ.Wait(p)
		if cqe == nil || cqe.Err != nil {
			t.Errorf("send completion: %+v", cqe)
		}
		if a.CPU.Interrupts() != before+1 {
			t.Errorf("blocked CQ wait should cost exactly one interrupt")
		}
		// A completion already queued is a poll: no interrupt.
		qa.PostSend(&SendWQE{WRID: 2, Op: OpSend, Payload: []byte("y"), Signaled: true})
		qa.Peer().PostRecv(2, 64)
		p.Sleep(time.Millisecond) // let it complete
		before = a.CPU.Interrupts()
		if cqe := qa.SendCQ.Wait(p); cqe == nil || cqe.Err != nil {
			t.Errorf("second completion: %+v", cqe)
		}
		if a.CPU.Interrupts() != before {
			t.Error("ready completion should not cost an interrupt")
		}
	})
	sim.Run()
}

func TestCloseFlushesQueuedWork(t *testing.T) {
	sim, _, a, _, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(64)
	sim.Spawn("p", func(p *des.Proc) {
		qa.Close()
		if qa.Err() == nil {
			t.Error("closed QP should be in error state")
		}
		// Posting to a closed endpoint flushes the WR with an error instead
		// of panicking: recovery paths legitimately race Close.
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 1, Op: OpWrite, Local: []LocalSeg{{Buf: src, Len: 64}},
		})
		if cqe.Err == nil {
			t.Error("post on closed QP should flush with an error")
		}
	})
	sim.Run()
}

func TestMemoryFindProperty(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	n := fab.AddNode(NodeConfig{Name: "n"})
	var bufs []*Buffer
	for i := 0; i < 50; i++ {
		bufs = append(bufs, n.Mem.Alloc(1+i*37))
	}
	f := func(pick, off uint16) bool {
		b := bufs[int(pick)%len(bufs)]
		o := int(off) % b.Size
		got, gotOff := n.Mem.find(b.Addr(o))
		return got == b && gotOff == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Addresses in guard gaps resolve to nothing.
	if b, _ := n.Mem.find(bufs[0].Base + uint64(bufs[0].Size) + 1); b != nil {
		t.Error("guard gap resolved to a buffer")
	}
	// Freed buffers resolve to nothing.
	n.Mem.Free(bufs[3])
	if b, _ := n.Mem.find(bufs[3].Base); b != nil {
		t.Error("freed buffer still resolvable")
	}
}

// TestMemoryForgetsFreedBuffers churns 10 000 Alloc/Free pairs around a few
// long-lived buffers, some allocated mid-churn so freed ranges sit between
// live ones. The list find searches must hold the live buffers plus at most
// as many dead ones not compacted away yet, at every step and when the churn
// is over, instead of everything ever allocated; live addresses resolve,
// freed ones — first and last byte included — do not; the accounting and the
// bump pointer are what they would be had nothing been forgotten. Then it
// churns Buffers allocated again into the same storage.
func TestMemoryForgetsFreedBuffers(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	m := fab.AddNode(NodeConfig{Name: "n"}).Mem
	const size, pairs, window = 3 * pageSize, 10_000, 7
	live := []*Buffer{m.Alloc(size), m.Alloc(100)}
	var freed, transient []*Buffer
	wantNext := m.Watermark()
	for i := 0; i < pairs; i++ {
		// A short FIFO window, so frees are neither LIFO nor all adjacent.
		transient = append(transient, m.Alloc(size))
		wantNext += size + pageSize
		if len(transient) > window {
			m.Free(transient[0])
			freed, transient = append(freed, transient[0]), transient[1:]
		}
		if i%2500 == 1250 {
			live = append(live, m.Alloc(size))
			wantNext += size + pageSize
		}
		if n, l := len(m.buffers), len(live)+len(transient); n > 2*l {
			t.Fatalf("pair %d: list holds %d buffers for %d live", i, n, l)
		}
	}
	for _, b := range transient {
		m.Free(b)
		freed = append(freed, b)
	}
	if n := len(m.buffers); n < len(live) || n > 2*len(live) {
		t.Errorf("list holds %d buffers after the churn for %d live", n, len(live))
	}
	for _, b := range live {
		for _, off := range []int{0, b.Size / 2, b.Size - 1} {
			if got, gotOff := m.find(b.Addr(off)); got != b || gotOff != off {
				t.Fatalf("live %#x+%d resolved to %v+%d", b.Base, off, got, gotOff)
			}
		}
	}
	for _, b := range freed {
		for _, off := range []int{0, b.Size - 1} {
			if got, _ := m.find(b.Addr(off)); got != nil {
				t.Fatalf("freed %#x+%d still resolves (to the buffer at %#x)", b.Base, off, got.Base)
			}
		}
	}
	if got, want := m.AllocatedBytes(), int64(100+(len(live)-1)*size); got != want {
		t.Errorf("AllocatedBytes = %d, want %d", got, want)
	}
	if got := m.Watermark(); got != wantNext {
		t.Errorf("Watermark = %#x, want %#x: addresses were reused or skipped", got, wantNext)
	}
	if next := m.Alloc(1); next.Base != wantNext {
		t.Errorf("next allocation at %#x, want %#x", next.Base, wantNext)
	}

	// The same Buffer storage allocated again after each Free, as a recycled
	// memreg chunk's is: its old range must resolve to nothing though the
	// Buffer is live again, its new range to it, and the list must still be
	// compacted.
	ring := make([]Buffer, window)
	for i := range ring {
		m.AllocInto(&ring[i], size, false)
	}
	var old []uint64 // the bases the ring's buffers left
	for i := 0; i < pairs; i++ {
		b := &ring[i%window]
		old = append(old, b.Base)
		m.Free(b)
		m.AllocInto(b, size, i%2 == 0)
		if n, l := len(m.buffers), len(live)+1+window; n > 2*l {
			t.Fatalf("recycle %d: list holds %d buffers for %d live", i, n, l)
		}
	}
	for _, base := range old {
		for _, off := range []uint64{0, size - 1} {
			if got, _ := m.find(base + off); got != nil {
				t.Fatalf("left %#x+%d still resolves (to the buffer now at %#x)", base, off, got.Base)
			}
		}
	}
	for i := range ring {
		b := &ring[i]
		for _, off := range []int{0, b.Size - 1} {
			if got, gotOff := m.find(b.Addr(off)); got != b || gotOff != off {
				t.Fatalf("recycled %#x+%d resolved to %v+%d", b.Base, off, got, gotOff)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AllocInto of a live buffer did not panic")
		}
	}()
	m.AllocInto(&ring[0], size, false)
}

func TestAllocationAccounting(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	n := fab.AddNode(NodeConfig{Name: "n"})
	a := n.Mem.Alloc(1000)
	b := n.Mem.Alloc(2000)
	if n.Mem.AllocatedBytes() != 3000 {
		t.Fatalf("allocated = %d", n.Mem.AllocatedBytes())
	}
	n.Mem.Free(a)
	if n.Mem.AllocatedBytes() != 2000 {
		t.Fatalf("after free = %d", n.Mem.AllocatedBytes())
	}
	n.Mem.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	n.Mem.Free(b)
}

func TestAccessStringer(t *testing.T) {
	cases := map[Access]string{
		0:                                   "-",
		AccessLocalWrite:                    "L",
		AccessLocalWrite | AccessRemoteRead: "LR",
		AccessRemoteWrite:                   "W",
		AccessLocalWrite | AccessRemoteRead | AccessRemoteWrite: "LRW",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestOpcodeStringer(t *testing.T) {
	if OpSend.String() != "SEND" || OpRead.String() != "RDMA_READ" ||
		OpWrite.String() != "RDMA_WRITE" || OpRecv.String() != "RECV" {
		t.Fatal("opcode stringers wrong")
	}
}

func TestRecvOverflowErrors(t *testing.T) {
	sim, _, _, _, qa, qb := testPair(t, true)
	sim.Spawn("p", func(p *des.Proc) {
		qb.PostRecv(1, 8) // tiny buffer
		cqe := qa.PostAndWait(p, &SendWQE{WRID: 1, Op: OpSend, Payload: make([]byte, 100)})
		if cqe.Err == nil {
			t.Error("oversized send into tiny recv should error")
		}
	})
	sim.Run()
}
