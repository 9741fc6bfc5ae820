package ibsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/des"
)

// testPair builds a two-node fabric with a connected QP pair.
func testPair(t testing.TB, copyData bool) (*des.Sim, *Fabric, *Node, *Node, *QP, *QP) {
	t.Helper()
	sim := des.New()
	fab := NewFabric(sim, copyData)
	a := fab.AddNode(NodeConfig{Name: "client", Cores: 2, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond})
	b := fab.AddNode(NodeConfig{Name: "server", Cores: 4, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond})
	qa, qb := fab.Connect(a, b, QPConfig{})
	return sim, fab, a, b, qa, qb
}

func fill(b *Buffer, seed byte) {
	d := b.Data()
	for i := range d {
		d[i] = seed + byte(i%251)
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	sim, _, _, _, qa, qb := testPair(t, true)
	msg := []byte("rpc call: NFSPROC3_GETATTR")
	var got []byte
	sim.Spawn("server", func(p *des.Proc) {
		qb.PostRecv(1, 1024)
		cqe := qb.RecvCQ.Wait(p)
		if cqe.Err != nil {
			t.Errorf("recv error: %v", cqe.Err)
		}
		got = cqe.Payload
	})
	sim.Spawn("client", func(p *des.Proc) {
		p.Sleep(time.Microsecond)
		cqe := qa.PostAndWait(p, &SendWQE{WRID: 7, Op: OpSend, Payload: msg})
		if cqe.Err != nil {
			t.Errorf("send error: %v", cqe.Err)
		}
	})
	sim.Run()
	if string(got) != string(msg) {
		t.Fatalf("payload = %q, want %q", got, msg)
	}
}

func TestRDMAWriteMovesBytes(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(4096)
	dst := b.Mem.Alloc(8192)
	fill(src, 3)
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 1024, 4096, AccessLocalWrite|AccessRemoteWrite)
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 1, Op: OpWrite,
			Local:     []LocalSeg{{Buf: src, Off: 0, Len: 4096}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(),
		})
		if cqe.Err != nil {
			t.Errorf("write error: %v", cqe.Err)
		}
	})
	sim.Run()
	want := src.Bytes(0, 4096)
	gotB := dst.Bytes(1024, 4096)
	for i := range want {
		if gotB[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, gotB[i], want[i])
		}
	}
}

func TestRDMAReadMovesBytes(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	remote := b.Mem.Alloc(64 << 10)
	local := a.Mem.Alloc(64 << 10)
	fill(remote, 9)
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, remote, 0, 64<<10, AccessRemoteRead)
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 2, Op: OpRead,
			Local:     []LocalSeg{{Buf: local, Off: 0, Len: 64 << 10}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(),
		})
		if cqe.Err != nil {
			t.Errorf("read error: %v", cqe.Err)
		}
	})
	sim.Run()
	want := remote.Bytes(0, 64<<10)
	gotB := local.Bytes(0, 64<<10)
	for i := range want {
		if gotB[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, gotB[i], want[i])
		}
	}
}

// TestTable1PrimitiveProperties verifies the four properties of Table 1.
func TestTable1PrimitiveProperties(t *testing.T) {
	// Channel primitives: receive buffer NOT exposed, must be pre-posted,
	// no steering tag, no rendezvous.
	t.Run("ChannelPrimitives", func(t *testing.T) {
		sim, fab, _, b, qa, qb := testPair(t, true)
		var rnrBefore int64
		sim.Spawn("client", func(p *des.Proc) {
			// No receive posted at the server: the send cannot land
			// (pre-posting required), and nothing about the server's memory
			// was ever exposed (no rkey exists for its receive buffers).
			rnrBefore = fab.Counters.Get("rnr")
			qa.PostSend(&SendWQE{WRID: 1, Op: OpSend, Payload: []byte("x")})
			p.Sleep(200 * time.Microsecond)
			qb.PostRecv(1, 64) // now it can complete on a retry
		})
		sim.Run()
		if fab.Counters.Get("rnr") <= rnrBefore {
			t.Error("send without pre-posted receive should hit RNR")
		}
		if got := b.HCA.RemoteExposedBytes(); got != 0 {
			t.Errorf("channel primitives exposed %d bytes", got)
		}
	})
	// Memory primitives: buffer exposed via steering tag, no pre-posted
	// receive needed, rendezvous (address+tag exchange) required.
	t.Run("MemoryPrimitives", func(t *testing.T) {
		sim, _, a, b, qa, _ := testPair(t, true)
		buf := b.Mem.Alloc(4096)
		src := a.Mem.Alloc(4096)
		sim.Spawn("client", func(p *des.Proc) {
			mr := b.HCA.Register(p, buf, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
			if b.HCA.RemoteExposedBytes() != 4096 {
				t.Errorf("exposed = %d, want 4096", b.HCA.RemoteExposedBytes())
			}
			// No PostRecv anywhere: RDMA Write completes without receiver
			// involvement, but only because the rkey rendezvous happened.
			cqe := qa.PostAndWait(p, &SendWQE{
				WRID: 1, Op: OpWrite,
				Local:     []LocalSeg{{Buf: src, Len: 4096}},
				RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(),
			})
			if cqe.Err != nil {
				t.Errorf("write error: %v", cqe.Err)
			}
		})
		sim.Run()
	})
}

func TestProtectionInvalidRkey(t *testing.T) {
	sim, fab, a, _, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(4096)
	sim.Spawn("client", func(p *des.Proc) {
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 1, Op: OpWrite,
			Local:     []LocalSeg{{Buf: src, Len: 4096}},
			RemoteKey: 0xdeadbeef, RemoteAddr: 0x1000,
		})
		if !errors.Is(cqe.Err, ErrProtection) {
			t.Errorf("err = %v, want protection error", cqe.Err)
		}
	})
	sim.Run()
	if fab.Counters.Get("protection_error") != 1 {
		t.Fatalf("protection_error = %d, want 1", fab.Counters.Get("protection_error"))
	}
	if qa.Err() == nil {
		t.Fatal("QP should be in error state after protection violation")
	}
}

func TestProtectionStaleRkeyAfterDeregister(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	remote := b.Mem.Alloc(4096)
	local := a.Mem.Alloc(4096)
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, remote, 0, 4096, AccessRemoteRead)
		rkey, addr := mr.Rkey(), mr.Start()
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 1, Op: OpRead,
			Local:     []LocalSeg{{Buf: local, Len: 4096}},
			RemoteKey: rkey, RemoteAddr: addr,
		})
		if cqe.Err != nil {
			t.Errorf("first read failed: %v", cqe.Err)
		}
		b.HCA.Deregister(p, mr)
		// Stale-rkey replay: the attack the Read-Write design prevents by
		// never exposing server buffers at all.
		cqe = qa.PostAndWait(p, &SendWQE{
			WRID: 2, Op: OpRead,
			Local:     []LocalSeg{{Buf: local, Len: 4096}},
			RemoteKey: rkey, RemoteAddr: addr,
		})
		if !errors.Is(cqe.Err, ErrProtection) {
			t.Errorf("stale rkey read: err = %v, want protection error", cqe.Err)
		}
	})
	sim.Run()
}

func TestProtectionWrongPermission(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	remote := b.Mem.Alloc(4096)
	local := a.Mem.Alloc(4096)
	sim.Spawn("client", func(p *des.Proc) {
		// Registered for remote READ only; a write must be rejected.
		mr := b.HCA.Register(p, remote, 0, 4096, AccessRemoteRead)
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 1, Op: OpWrite,
			Local:     []LocalSeg{{Buf: local, Len: 4096}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(),
		})
		if !errors.Is(cqe.Err, ErrProtection) {
			t.Errorf("err = %v, want protection error", cqe.Err)
		}
	})
	sim.Run()
}

func TestProtectionOutOfBounds(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	remote := b.Mem.Alloc(8192)
	local := a.Mem.Alloc(8192)
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, remote, 0, 4096, AccessRemoteRead)
		cqe := qa.PostAndWait(p, &SendWQE{
			WRID: 1, Op: OpRead,
			Local:     []LocalSeg{{Buf: local, Len: 8192}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(), // 8 KiB from a 4 KiB MR
		})
		if !errors.Is(cqe.Err, ErrProtection) {
			t.Errorf("err = %v, want protection error", cqe.Err)
		}
	})
	sim.Run()
}

func TestRkeyGuessingAlmostNeverHits(t *testing.T) {
	sim, fab, a, b, qa, _ := testPair(t, true)
	remote := b.Mem.Alloc(4096)
	local := a.Mem.Alloc(4096)
	sim.Spawn("victim-reg", func(p *des.Proc) {
		b.HCA.Register(p, remote, 0, 4096, AccessRemoteRead)
	})
	hits := 0
	sim.Spawn("attacker", func(p *des.Proc) {
		p.Sleep(time.Millisecond)
		rng := des.NewRand(0xbad)
		for i := 0; i < 500; i++ {
			cqe := qa.PostAndWait(p, &SendWQE{
				WRID: uint64(i), Op: OpRead,
				Local:     []LocalSeg{{Buf: local, Len: 16}},
				RemoteKey: rng.Uint32(), RemoteAddr: remote.Base,
			})
			if cqe.Err == nil {
				hits++
			}
			// A protection error kills the QP; model the attacker
			// reconnecting by clearing the error (white-box reset).
			qa.errSt = nil
			qa.peer.errSt = nil
		}
	})
	sim.Run()
	if hits != 0 {
		t.Fatalf("random 32-bit rkey guessing hit %d times in 500 attempts", hits)
	}
	if fab.Counters.Get("protection_error") != 500 {
		t.Fatalf("protection_error = %d, want 500", fab.Counters.Get("protection_error"))
	}
}

// TestWriteThenSendOrdering verifies the guarantee the Read-Write design
// depends on: a Send posted after an RDMA Write is delivered after the
// Write's data is placed in client memory.
func TestWriteThenSendOrdering(t *testing.T) {
	sim, _, a, b, qa, qb := testPair(t, true)
	cbuf := a.Mem.Alloc(1 << 20)
	sbuf := b.Mem.Alloc(1 << 20)
	fill(sbuf, 42)
	ok := false
	sim.Spawn("client", func(p *des.Proc) {
		mr := a.HCA.Register(p, cbuf, 0, 1<<20, AccessLocalWrite|AccessRemoteWrite)
		qa.PostRecv(1, 1024)
		// Hand the rkey to the "server" side out of band (rendezvous).
		qb.PostSend(&SendWQE{WRID: 10, Op: OpWrite,
			Local:     []LocalSeg{{Buf: sbuf, Len: 1 << 20}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start()})
		qb.PostSend(&SendWQE{WRID: 11, Op: OpSend, Payload: []byte("reply")})
		cqe := qa.RecvCQ.Wait(p)
		if cqe.Err != nil {
			t.Errorf("recv: %v", cqe.Err)
			return
		}
		// On reply receipt, every byte of the preceding write must be
		// visible.
		want := sbuf.Bytes(0, 1<<20)
		got := cbuf.Bytes(0, 1<<20)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("write data not placed before send delivery (byte %d)", i)
				return
			}
		}
		ok = true
	})
	sim.Run()
	if !ok {
		t.Fatal("ordering check did not complete")
	}
}

// TestSendNotOrderedAfterRead verifies that a Send posted after an RDMA Read
// can be delivered before the Read's data returns — the reason the
// Read-Read server must block on Read completions.
func TestSendNotOrderedAfterRead(t *testing.T) {
	sim, _, a, b, qa, qb := testPair(t, true)
	remote := a.Mem.Alloc(8 << 20) // large read: data return takes a while
	local := b.Mem.Alloc(8 << 20)
	var sendDelivered, readDone des.Time
	sim.Spawn("setup", func(p *des.Proc) {
		mr := a.HCA.Register(p, remote, 0, 8<<20, AccessRemoteRead)
		qa.PostRecv(1, 1024)
		readEv := des.NewEvent(sim)
		qb.PostSend(&SendWQE{WRID: 20, Op: OpRead,
			Local:     []LocalSeg{{Buf: local, Len: 8 << 20}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(), Done: readEv})
		qb.PostSend(&SendWQE{WRID: 21, Op: OpSend, Payload: []byte("reply")})
		sim.Spawn("recv", func(rp *des.Proc) {
			qa.RecvCQ.Wait(rp)
			sendDelivered = rp.Now()
		})
		readEv.Wait(p)
		readDone = p.Now()
	})
	sim.Run()
	if sendDelivered == 0 || readDone == 0 {
		t.Fatal("operations did not complete")
	}
	if sendDelivered >= readDone {
		t.Fatalf("send delivered at %v, read done at %v: send should overtake read data", sendDelivered, readDone)
	}
}

// TestORDLimitSerializesReads verifies that a 9th outstanding RDMA Read
// stalls until a slot frees, and that read throughput is bounded by
// ORD * size / RTT-ish pipelining rather than scaling with queue depth.
func TestORDLimitSerializesReads(t *testing.T) {
	sim, _, a, b, _, qb := testPair(t, true)
	remote := a.Mem.Alloc(16 << 10)
	local := b.Mem.Alloc(16 << 10)
	maxOutstanding := 0
	sim.Spawn("driver", func(p *des.Proc) {
		mr := a.HCA.Register(p, remote, 0, 16<<10, AccessRemoteRead)
		events := make([]*des.Event, 0, 32)
		for i := 0; i < 32; i++ {
			ev := des.NewEvent(sim)
			qb.PostSend(&SendWQE{WRID: uint64(i), Op: OpRead,
				Local:     []LocalSeg{{Buf: local, Len: 512}},
				RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(), Done: ev})
			events = append(events, ev)
		}
		sim.Spawn("watch", func(wp *des.Proc) {
			for wp.Now() < des.Time(10*time.Millisecond) {
				if n := qb.ord.InUse(); n > maxOutstanding {
					maxOutstanding = n
				}
				wp.Sleep(100 * time.Nanosecond)
			}
		})
		des.WaitAll(p, events...)
		sim.Stop()
	})
	sim.Run()
	if maxOutstanding > 8 {
		t.Fatalf("outstanding reads = %d, want <= 8 (ORD limit)", maxOutstanding)
	}
	if maxOutstanding < 2 {
		t.Fatalf("outstanding reads = %d, expected pipelining", maxOutstanding)
	}
}

// TestBandwidthSaturation sanity-checks the link model: a single large
// RDMA Write should achieve close to port bandwidth.
func TestBandwidthSaturation(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, false)
	const size = 64 << 20
	src := a.Mem.Alloc(size)
	var elapsed des.Time
	sim.Spawn("client", func(p *des.Proc) {
		mr := b.HCA.Register(p, b.Mem.Alloc(size), 0, size, AccessLocalWrite|AccessRemoteWrite)
		start := p.Now()
		cqe := qa.PostAndWait(p, &SendWQE{WRID: 1, Op: OpWrite,
			Local:     []LocalSeg{{Buf: src, Len: size}},
			RemoteKey: mr.Rkey(), RemoteAddr: mr.Start()})
		if cqe.Err != nil {
			t.Errorf("write: %v", cqe.Err)
		}
		elapsed = p.Now() - start
	})
	sim.Run()
	mbps := float64(size) / 1e6 / elapsed.Seconds()
	if mbps < 850 || mbps > 905 {
		t.Fatalf("single-stream bandwidth = %.1f MB/s, want ~900", mbps)
	}
}

// TestIncastSharesReceiverPort checks that concurrent senders into one node
// share its port bandwidth (the Fig. 10 server-egress model, mirrored).
func TestIncastSharesReceiverPort(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	server := fab.AddNode(NodeConfig{Name: "server", PortBandwidth: 900e6})
	const size = 8 << 20
	var last des.Time
	for i := 0; i < 3; i++ {
		client := fab.AddNode(NodeConfig{Name: "client", PortBandwidth: 900e6})
		qc, _ := fab.Connect(client, server, QPConfig{})
		src := client.Mem.Alloc(size)
		dst := server.Mem.Alloc(size)
		sim.Spawn("c", func(p *des.Proc) {
			mr := server.HCA.Register(p, dst, 0, size, AccessLocalWrite|AccessRemoteWrite)
			qc.PostAndWait(p, &SendWQE{WRID: 1, Op: OpWrite,
				Local:     []LocalSeg{{Buf: src, Len: size}},
				RemoteKey: mr.Rkey(), RemoteAddr: mr.Start()})
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	sim.Run()
	aggMBps := float64(3*size) / 1e6 / last.Seconds()
	if aggMBps > 910 {
		t.Fatalf("aggregate into one port = %.1f MB/s, should be capped at ~900", aggMBps)
	}
	if aggMBps < 800 {
		t.Fatalf("aggregate = %.1f MB/s, port should still be well utilized", aggMBps)
	}
}

func TestFMRMapUnmapReuse(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	local := a.Mem.Alloc(4096)
	sim.Spawn("p", func(p *des.Proc) {
		h := b.HCA.NewFMRHandle(p, 1<<20)
		for i := 0; i < 3; i++ {
			buf := b.Mem.Alloc(64 << 10)
			fill(buf, byte(i))
			mr := h.Map(p, buf, 0, 64<<10, AccessRemoteRead)
			cqe := qa.PostAndWait(p, &SendWQE{WRID: uint64(i), Op: OpRead,
				Local:     []LocalSeg{{Buf: local, Len: 4096}},
				RemoteKey: mr.Rkey(), RemoteAddr: mr.Start()})
			if cqe.Err != nil {
				t.Errorf("read %d: %v", i, cqe.Err)
			}
			if local.Bytes(0, 1)[0] != buf.Bytes(0, 1)[0] {
				t.Errorf("iteration %d read wrong data", i)
			}
			h.Unmap(p)
		}
	})
	sim.Run()
}

func TestGlobalRkeyReachesAnyBuffer(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	g := b.HCA.EnableGlobalRkey()
	buf1 := b.Mem.Alloc(4096)
	buf2 := b.Mem.Alloc(4096)
	fill(buf1, 1)
	fill(buf2, 2)
	local := a.Mem.Alloc(4096)
	sim.Spawn("p", func(p *des.Proc) {
		for _, buf := range []*Buffer{buf1, buf2} {
			cqe := qa.PostAndWait(p, &SendWQE{WRID: 1, Op: OpRead,
				Local:     []LocalSeg{{Buf: local, Len: 4096}},
				RemoteKey: g.Rkey(), RemoteAddr: buf.Base})
			if cqe.Err != nil {
				t.Errorf("read via global rkey: %v", cqe.Err)
			}
			if local.Bytes(10, 1)[0] != buf.Bytes(10, 1)[0] {
				t.Error("global-rkey read returned wrong data")
			}
		}
	})
	sim.Run()
}

func TestPhysicalRunsCoverBuffer(t *testing.T) {
	sim := des.New()
	fab := NewFabric(sim, false)
	n := fab.AddNode(NodeConfig{Name: "n", MeanPhysRun: 32 << 10})
	count := func(b *Buffer) int {
		runs, next := 0, 0
		b.EachRun(0, b.Size, func(off, n int) {
			if off != next || n <= 0 {
				t.Fatalf("run at %d of %d bytes follows one ending at %d", off, n, next)
			}
			runs, next = runs+1, off+n
		})
		if next != b.Size {
			t.Fatalf("runs cover %d bytes, want %d", next, b.Size)
		}
		return runs
	}
	for _, size := range []int{4096, 128 << 10, 1 << 20} {
		count(n.Mem.Alloc(size))
	}
	// A 128 KiB buffer with 32 KiB mean runs should need several segments.
	if runs := count(n.Mem.Alloc(128 << 10)); runs < 2 {
		t.Fatalf("expected fragmentation, got %d runs", runs)
	}
	// A contiguous allocation is one run.
	if runs := count(n.Mem.AllocContiguous(128 << 10)); runs != 1 {
		t.Fatalf("contiguous alloc has %d runs", runs)
	}
}

func TestQPErrorFlushesQueuedWork(t *testing.T) {
	sim, _, a, _, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(4096)
	var second error
	sim.Spawn("p", func(p *des.Proc) {
		bad := qa.PostAndWait(p, &SendWQE{WRID: 1, Op: OpWrite,
			Local:     []LocalSeg{{Buf: src, Len: 64}},
			RemoteKey: 0x1234, RemoteAddr: 0x1000})
		if bad.Err == nil {
			t.Error("expected protection error")
		}
		cqe := qa.PostAndWait(p, &SendWQE{WRID: 2, Op: OpSend, Payload: []byte("x")})
		second = cqe.Err
	})
	sim.Run()
	if !errors.Is(second, ErrQPError) && !errors.Is(second, ErrProtection) {
		t.Fatalf("post-error work completed with %v, want flush", second)
	}
}
