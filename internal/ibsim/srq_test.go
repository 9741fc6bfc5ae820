package ibsim

import (
	"testing"
	"time"

	"repro/internal/des"
)

// TestSRQPostTakeFIFO verifies pooled WQEs are consumed in post order and
// the Depth cap refuses over-posting.
func TestSRQPostTakeFIFO(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	n := fab.AddNode(NodeConfig{Name: "srv"})
	srq := NewSRQ(n, "srv/srq", SRQConfig{Depth: 4})
	for i := 0; i < 4; i++ {
		if !srq.PostRecv(uint64(i), 1024) {
			t.Fatalf("post %d refused below depth", i)
		}
	}
	if srq.PostRecv(99, 1024) {
		t.Fatal("post beyond depth accepted")
	}
	if srq.PostFailed != 1 {
		t.Fatalf("PostFailed = %d, want 1", srq.PostFailed)
	}
	for i := 0; i < 4; i++ {
		r, ok := srq.take()
		if !ok || r.WRID != uint64(i) {
			t.Fatalf("take %d = %+v, want WRID %d", i, r, i)
		}
	}
	if r, ok := srq.take(); ok {
		t.Fatalf("take on empty pool = %+v, want none", r)
	}
	if srq.Starved != 1 || srq.Consumed != 4 || srq.Posted != 4 {
		t.Fatalf("stats = starved %d consumed %d posted %d", srq.Starved, srq.Consumed, srq.Posted)
	}
}

// TestSRQLimitEventFiresOnce verifies the armed low-watermark event fires
// exactly once when consumption crosses the limit, and re-arming after a
// refill makes the next crossing fire again. A firing schedules the armed
// callback at its instant.
func TestSRQLimitEventFiresOnce(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	n := fab.AddNode(NodeConfig{Name: "srv"})
	srq := NewSRQ(n, "srv/srq", SRQConfig{Depth: 8, Limit: 3})
	for i := 0; i < 8; i++ {
		srq.PostRecv(uint64(i), 1024)
	}
	called := 0
	limit := func(any) { called++ }
	if srq.ArmLimit(limit, nil) {
		t.Fatal("armed event fired with pool above watermark")
	}
	// Takes 8→7→6→5→4→3: still at or above the watermark.
	for i := 0; i < 5; i++ {
		srq.take()
		if srq.LimitEvents != 0 {
			t.Fatalf("limit fired early at avail %d", srq.Avail())
		}
	}
	srq.take() // 3→2: crossed
	if srq.LimitEvents != 1 {
		t.Fatal("limit event did not fire on crossing")
	}
	srq.take() // further takes must not re-fire a disarmed event
	if srq.LimitEvents != 1 {
		t.Fatalf("LimitEvents = %d, want 1", srq.LimitEvents)
	}
	sim.Run()
	if called != 1 {
		t.Fatalf("callback ran %d times, want 1", called)
	}
	// Refill, re-arm, cross again.
	for i := 0; i < 6; i++ {
		srq.PostRecv(uint64(10+i), 1024)
	}
	if srq.ArmLimit(limit, nil) {
		t.Fatal("re-armed event fired with pool above watermark")
	}
	for srq.Avail() >= srq.Limit() {
		srq.take()
	}
	sim.Run()
	if called != 2 || srq.LimitEvents != 2 {
		t.Fatalf("second crossing: called=%d events=%d", called, srq.LimitEvents)
	}
}

// TestSRQArmBelowWatermarkFiresImmediately covers arming when the pool is
// already depleted: the event must fire at once, or the refill chain would
// sleep through an empty pool.
func TestSRQArmBelowWatermarkFiresImmediately(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	n := fab.AddNode(NodeConfig{Name: "srv"})
	srq := NewSRQ(n, "srv/srq", SRQConfig{Depth: 8, Limit: 4})
	srq.PostRecv(0, 1024)
	if !srq.ArmLimit(func(any) { t.Fatal("callback of an event that fired at once") }, nil) {
		t.Fatal("arming below the watermark did not fire immediately")
	}
	sim.Run()
}

// TestSRQSharedAcrossQPs drives sends over two QPs attached to one SRQ and
// a shared receive CQ: every message consumes a pooled WQE, and completions
// demultiplex by CQE.QP.
func TestSRQSharedAcrossQPs(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, true)
	srv := fab.AddNode(NodeConfig{Name: "srv"})
	cl1 := fab.AddNode(NodeConfig{Name: "cl1"})
	cl2 := fab.AddNode(NodeConfig{Name: "cl2"})

	srq := NewSRQ(srv, "srv/srq", SRQConfig{Depth: 16, Limit: 2})
	scq := NewCQ(srv, "srv/shard-rcq")
	for i := 0; i < 16; i++ {
		srq.PostRecv(uint64(i), 1024)
	}

	c1, s1 := fab.Connect(cl1, srv, QPConfig{})
	c2, s2 := fab.Connect(cl2, srv, QPConfig{})
	for _, q := range []*QP{s1, s2} {
		q.AttachSRQ(srq)
		q.SetRecvCQ(scq)
	}

	const per = 5
	done := des.NewEvent(sim)
	got := map[*QP]int{}
	sim.Spawn("recv", func(p *des.Proc) {
		for i := 0; i < 2*per; i++ {
			cqe := scq.Wait(p)
			if cqe.Err != nil {
				t.Errorf("recv %d: %v", i, cqe.Err)
				return
			}
			got[cqe.QP]++
		}
		done.Fire(nil)
	})
	for qi, q := range []*QP{c1, c2} {
		q := q
		qi := qi
		sim.Spawn("send", func(p *des.Proc) {
			for i := 0; i < per; i++ {
				q.PostAndWait(p, &SendWQE{WRID: uint64(qi*100 + i), Op: OpSend, Payload: []byte("ping")})
			}
		})
	}
	sim.Spawn("check", func(p *des.Proc) {
		done.Wait(p)
		if got[s1] != per || got[s2] != per {
			t.Errorf("demux = qp1:%d qp2:%d, want %d each", got[s1], got[s2], per)
		}
		if srq.Consumed != 2*per {
			t.Errorf("Consumed = %d, want %d", srq.Consumed, 2*per)
		}
		if s1.PostedRecvs() != 0 || s2.PostedRecvs() != 0 {
			t.Error("SRQ-attached QPs grew private receive queues")
		}
	})
	sim.Run()
}

// TestSRQQPErrorMidRefillNoStrandedWQEs is the fault-injection balance
// check: drain the pool to RNR, start a refill, and kill one of the attached
// QPs in the middle of it. The dead QP must not strand pooled WQEs — the
// pool belongs to the SRQ, not any QP — so the accounting identity
// Posted == Consumed + Avail() holds throughout, and a surviving QP drains
// exactly what the refill posted.
func TestSRQQPErrorMidRefillNoStrandedWQEs(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, true)
	srv := fab.AddNode(NodeConfig{Name: "srv"})
	cl1 := fab.AddNode(NodeConfig{Name: "cl1"})
	cl2 := fab.AddNode(NodeConfig{Name: "cl2"})
	srq := NewSRQ(srv, "srv/srq", SRQConfig{Depth: 8, Limit: 2})
	scq := NewCQ(srv, "srv/rcq")
	c1, s1 := fab.Connect(cl1, srv, QPConfig{RNRRetryDelay: 50 * time.Microsecond, RNRRetryLimit: 7})
	c2, s2 := fab.Connect(cl2, srv, QPConfig{RNRRetryDelay: 50 * time.Microsecond, RNRRetryLimit: 7})
	for _, q := range []*QP{s1, s2} {
		q.AttachSRQ(srq)
		q.SetRecvCQ(scq)
	}

	balance := func(where string) {
		if srq.Posted != srq.Consumed+int64(srq.Avail()) {
			t.Fatalf("%s: posted %d != consumed %d + avail %d (stranded WQEs)",
				where, srq.Posted, srq.Consumed, srq.Avail())
		}
	}

	// Two pooled WQEs; the first two sends drain them, the third hits RNR.
	srq.PostRecv(0, 1024)
	srq.PostRecv(1, 1024)
	sim.Spawn("senders", func(p *des.Proc) {
		for i := 0; i < 2; i++ {
			if cqe := c1.PostAndWait(p, &SendWQE{WRID: uint64(i), Op: OpSend, Payload: []byte("x")}); cqe.Err != nil {
				t.Errorf("warmup send %d: %v", i, cqe.Err)
			}
		}
		balance("after drain")
		// Pool empty: this send spins on RNR until the refill below.
		if cqe := c1.PostAndWait(p, &SendWQE{WRID: 9, Op: OpSend, Payload: []byte("rnr")}); cqe.Err == nil {
			t.Error("send on the QP killed mid-refill completed cleanly")
		}
	})
	sim.Spawn("refill", func(p *des.Proc) {
		p.Sleep(120 * time.Microsecond)
		if srq.Starved == 0 {
			t.Error("pool never starved before the refill")
		}
		srq.PostRecv(10, 1024)
		// Mid-refill: the RNR-spinning QP dies between the two posts.
		s1.InjectError(nil)
		srq.PostRecv(11, 1024)
		balance("mid-refill after QP error")
	})
	sim.Spawn("survivor", func(p *des.Proc) {
		p.Sleep(400 * time.Microsecond)
		// The surviving QP consumes everything the refill posted: nothing is
		// stranded on the dead QP.
		for i := 0; i < 2; i++ {
			if cqe := c2.PostAndWait(p, &SendWQE{WRID: uint64(20 + i), Op: OpSend, Payload: []byte("y")}); cqe.Err != nil {
				t.Errorf("survivor send %d: %v", i, cqe.Err)
			}
		}
	})
	sim.Run()
	balance("end of run")
	if srq.Consumed != 4 {
		t.Errorf("Consumed = %d, want 4 (2 warmup + 2 refill)", srq.Consumed)
	}
	if srq.Avail() != 0 {
		t.Errorf("Avail = %d, want 0", srq.Avail())
	}
}

// TestSRQEmptyPoolRNRThenRecover exhausts the pool, observes the RNR retry
// path hold the send, then reposts and sees it delivered — SRQ starvation
// behaves exactly like an empty private receive queue.
func TestSRQEmptyPoolRNRThenRecover(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, true)
	srv := fab.AddNode(NodeConfig{Name: "srv"})
	cl := fab.AddNode(NodeConfig{Name: "cl"})
	srq := NewSRQ(srv, "srv/srq", SRQConfig{Depth: 4, Limit: 1})
	scq := NewCQ(srv, "srv/rcq")
	cq, sq := fab.Connect(cl, srv, QPConfig{RNRRetryDelay: 50 * time.Microsecond, RNRRetryLimit: 7})
	sq.AttachSRQ(srq)
	sq.SetRecvCQ(scq)

	// No WQEs posted: the first send must spin on RNR until the repost.
	sim.Spawn("repost", func(p *des.Proc) {
		p.Sleep(120 * time.Microsecond)
		srq.PostRecv(1, 1024)
	})
	delivered := false
	sim.Spawn("send", func(p *des.Proc) {
		cqe := cq.PostAndWait(p, &SendWQE{WRID: 7, Op: OpSend, Payload: []byte("late")})
		if cqe.Err != nil {
			t.Errorf("send failed: %v", cqe.Err)
			return
		}
		delivered = true
	})
	sim.Run()
	if !delivered {
		t.Fatal("send never delivered after repost")
	}
	if srq.Starved == 0 {
		t.Fatal("empty pool never counted starvation")
	}
	if fab.Counters.Get("rnr") == 0 {
		t.Fatal("no RNR recorded for the starved send")
	}
}
