package rpcrdma

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/trace"
)

// rfpEnv is newEnv with a tracer, a DRC, and per-side config overrides —
// the harness for the reply-fetch recovery and exposure tests.
type rfpEnv struct {
	env
	tr *trace.Tracer
}

func newRFPEnv(t *testing.T, ccfg, scfg Config, body func(p *des.Proc, e *env)) *rfpEnv {
	t.Helper()
	sim := des.New()
	tr := trace.New(1 << 20)
	sim.SetTracer(tr)
	fab := ibsim.NewFabric(sim, true)
	nodeCfg := ibsim.NodeConfig{
		Cores: 4, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond,
		RegPerPageCPU: 200 * time.Nanosecond, RegBase: 5 * time.Microsecond, RegPerPageBus: 200 * time.Nanosecond,
		DeregPerPageCPU: 100 * time.Nanosecond, DeregBase: 2 * time.Microsecond, DeregPerPageBus: 100 * time.Nanosecond,
		FMRMapCPU: 100 * time.Nanosecond, WQEOverhead: 300 * time.Nanosecond,
	}
	cCfg, sCfg := nodeCfg, nodeCfg
	cCfg.Name, cCfg.Seed = "client", 11
	sCfg.Name, sCfg.Seed = "server", 22
	e := &rfpEnv{tr: tr}
	e.sim, e.fab = sim, fab
	e.client = fab.AddNode(cCfg)
	e.server = fab.AddNode(sCfg)
	e.svc = &blobService{}
	sim.Spawn("setup", func(p *des.Proc) {
		cq, sq := fab.Connect(e.client, e.server, ibsim.QPConfig{})
		cmgr := memreg.NewManager(p, e.client, memreg.Config{})
		smgr := memreg.NewManager(p, e.server, memreg.Config{})
		disp := oncrpc.NewDispatcher()
		disp.Register(e.svc)
		disp.EnableDRC(256)
		e.st = NewServerTransport(p, e.server, smgr, disp, scfg)
		e.st.TryServe(sq)
		e.ct = NewClientTransport(p, cq, cmgr, ccfg)
		e.rpc = oncrpc.NewClient(e.ct, 4242, 1, oncrpc.Auth{})
		body(p, &e.env)
	})
	sim.Run()
	return e
}

// TestReplyFetchNoServerSend pins the design's whole point: the server
// deposits every reply and posts no Send, never blocks on a send
// completion, and never exposes a byte of its own memory.
func TestReplyFetchNoServerSend(t *testing.T) {
	newEnv(t, ReplyFetch, memreg.Regular, func(p *des.Proc, e *env) {
		payload := pattern(64<<10, 1)
		if _, _, err := e.rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)}); err != nil {
			t.Fatalf("put: %v", err)
		}
		dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
		if _, n, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 64<<10 {
			t.Fatalf("get: n=%d err=%v", n, err)
		}
		if !bytes.Equal(dst.Data, payload) {
			t.Fatal("payload corrupted end to end")
		}
		if e.st.Deposits != 2 {
			t.Errorf("deposits = %d, want 2", e.st.Deposits)
		}
		if got := e.server.HCA.RemoteExposedBytes(); got != 0 {
			t.Errorf("reply-fetch server exposed %d bytes", got)
		}
		p.Sleep(time.Millisecond) // let the DONEs drain
		if e.st.ParkedReplies() != 0 {
			t.Errorf("parked replies = %d after DONEs", e.st.ParkedReplies())
		}
		if e.ct.DoneSent != 2 {
			t.Errorf("client DONEs = %d, want 2", e.ct.DoneSent)
		}
	})
}

// TestReplyFetchClientExposedByDesign is the security ledger entry RFP
// pays: even a small inline call opens a remotely writable client MR (the
// reply slot), where Read-Write client-side exposure only ever follows
// bulk advertisement. The slot MR must still die with its RPC.
func TestReplyFetchClientExposedByDesign(t *testing.T) {
	for _, tc := range []struct {
		design  Design
		exposed bool
	}{{ReadWrite, false}, {ReplyFetch, true}} {
		tc := tc
		t.Run(tc.design.String(), func(t *testing.T) {
			e := newRFPEnv(t, Config{Design: tc.design}, Config{Design: tc.design, Workers: 4},
				func(p *des.Proc, e *env) {
					for i := 0; i < 3; i++ {
						if _, _, err := e.rpc.Call(p, 4, raw([]byte("ping")), oncrpc.CallOpts{}); err != nil {
							t.Errorf("echo: %v", err)
						}
					}
				})
			err := trace.CheckNoRemoteExposure(e.tr.Events(), "client")
			if tc.exposed && err == nil {
				t.Error("reply-fetch client should trip CheckNoRemoteExposure (slot MR is remotely writable)")
			}
			if !tc.exposed && err != nil {
				t.Errorf("read-write inline calls should expose nothing: %v", err)
			}
			if err := trace.CheckNoRemoteExposure(e.tr.Events(), "server"); err != nil {
				t.Errorf("server exposure under %v: %v", tc.design, err)
			}
			if err := trace.CheckExposureBounds(e.tr.Events()); err != nil {
				t.Errorf("exposure bounds under %v: %v", tc.design, err)
			}
		})
	}
}

// TestReplyFetchRetransmitReArm drives the watchdog through a mid-fetch
// timeout: the deposit lands, but the client's poll loop (slowed far past
// the call timeout) has not consumed it when the timer fires. The
// retransmission re-arms the slot (doorbell zeroed, same registration,
// same wire bytes), the server answers it from the DRC with a second,
// byte-identical deposit after retiring the stale park, and the single
// RDMA_DONE that follows must leave nothing parked. The slot MR still
// dies inside the RPC span — CheckExposureBounds stays clean.
func TestReplyFetchRetransmitReArm(t *testing.T) {
	ccfg := Config{
		Design:         ReplyFetch,
		FetchPollDelay: 500 * time.Microsecond,
		CallTimeout:    200 * time.Microsecond,
		RetryLimit:     2,
	}
	e := newRFPEnv(t, ccfg, Config{Design: ReplyFetch, Workers: 4}, func(p *des.Proc, e *env) {
		args := pattern(600, 9)
		res, _, err := e.rpc.Call(p, 4, raw(args), oncrpc.CallOpts{})
		if err != nil {
			t.Fatalf("echo through retransmit: %v", err)
		}
		if !bytes.Equal(res, args) {
			t.Fatal("reply corrupted across re-armed slot")
		}
		if e.ct.Timeouts != 1 || e.ct.Retransmits != 1 {
			t.Errorf("timeouts=%d retransmits=%d, want 1/1", e.ct.Timeouts, e.ct.Retransmits)
		}
		if e.st.Deposits != 2 {
			t.Errorf("deposits = %d, want 2 (original + DRC replay)", e.st.Deposits)
		}
		p.Sleep(time.Millisecond)
		if e.st.ParkedReplies() != 0 {
			t.Errorf("parked replies = %d, want 0 (stale park retired, fresh park DONEd)", e.st.ParkedReplies())
		}
	})
	if err := trace.CheckExposureBounds(e.tr.Events()); err != nil {
		t.Errorf("exposure bounds across retransmit: %v", err)
	}
	if err := trace.CheckNoRemoteExposure(e.tr.Events(), "server"); err != nil {
		t.Errorf("server exposure: %v", err)
	}
}

// TestReplyFetchAbandonedMidFetch: a call whose only attempt times out after
// its deposit landed, while the poller waits out the poll delay or while it
// is charged for the copy out of the slot, decodes nothing and fires
// nothing: the reply's credit grant (8, against the client's 32) is not
// installed. The deposit is counted as stray and released with one
// RDMA_DONE, so nothing stays parked at the server. The copy is still charged
// in full, as the poll loop it models would spend it. Afterwards no core is
// held and the client's HCA holds no watch.
func TestReplyFetchAbandonedMidFetch(t *testing.T) {
	for _, tc := range []struct {
		name              string
		poll, copyPerByte time.Duration
	}{
		{"in the poll delay", 5 * time.Millisecond, 100 * time.Nanosecond},
		{"in the copy charge", time.Microsecond, 100 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ccfg := Config{Design: ReplyFetch, FetchPollDelay: tc.poll, CallTimeout: time.Millisecond, DynamicCredits: true}
			newRFPEnv(t, ccfg, Config{Design: ReplyFetch, Workers: 4, Credits: 8}, func(p *des.Proc, e *env) {
				clientCPU := e.client.CPU
				clientCPU.CopyNsPerByte = float64(tc.copyPerByte)
				_, _, err := e.rpc.Call(p, 4, raw([]byte("ping")), oncrpc.CallOpts{})
				if !errors.Is(err, ErrRetriesExhausted) {
					t.Fatalf("call: %v, want it abandoned on its timeout", err)
				}
				if e.st.Deposits != 1 {
					t.Fatalf("deposits = %d, want the reply deposited before the timeout", e.st.Deposits)
				}
				abandoned := clientCPU.TotalBusySeconds()
				p.Sleep(20 * time.Millisecond)
				charged := clientCPU.TotalBusySeconds()
				if charged <= abandoned {
					t.Error("the copy out of the slot was not charged after the call was abandoned: the fetch was not in flight")
				}
				if e.ct.GrantedCredits() != 32 || e.ct.BadHeaders != 0 {
					t.Errorf("the abandoned fetch went on: grant %d, %d bad headers", e.ct.GrantedCredits(), e.ct.BadHeaders)
				}
				if e.ct.DoneSent != 1 || e.ct.StrayReplies != 1 || e.st.ParkedReplies() != 0 {
					t.Errorf("%d DONEs sent, %d stray replies, %d replies parked: want the abandoned deposit counted and released once",
						e.ct.DoneSent, e.ct.StrayReplies, e.st.ParkedReplies())
				}
				if n := e.client.HCA.Watches(); n != 0 {
					t.Errorf("client HCA holds %d watches", n)
				}
				p.Sleep(time.Millisecond)
				if idle := clientCPU.TotalBusySeconds(); idle != charged {
					t.Errorf("client CPU busy for %v s while nothing ran: a core is still held", idle-charged)
				}
			})
		})
	}
}

// TestReplyFetchDropDonePinsDeposits is §4.1 transplanted onto RFP: a
// client that withholds RDMA_DONE pins the server's parked deposit staging
// — the resource-pinning half of the vulnerability survives even though
// the exposure half moved to the client.
func TestReplyFetchDropDonePinsDeposits(t *testing.T) {
	newEnv(t, ReplyFetch, memreg.Regular, func(p *des.Proc, e *env) {
		e.ct.DropDone = true
		for i := 0; i < 5; i++ {
			if _, _, err := e.rpc.Call(p, 4, raw([]byte("hi")), oncrpc.CallOpts{}); err != nil {
				t.Errorf("echo %d: %v", i, err)
			}
		}
		p.Sleep(time.Millisecond)
		if e.st.ParkedReplies() != 5 {
			t.Errorf("parked deposits = %d, want 5 (withheld DONEs pin staging)", e.st.ParkedReplies())
		}
		if got := e.server.HCA.RemoteExposedBytes(); got != 0 {
			t.Errorf("pinned deposits exposed %d bytes (reply-fetch parks are local-only)", got)
		}
	})
}

// TestReplyFetchReadParksTwoChunks: a Reply-Fetch READ parks the most a reply
// parks, its bulk staging and its deposit, in one map value; its RDMA_DONE
// releases both, and the server's parked replies and allocated memory return
// to where they were before the call.
func TestReplyFetchReadParksTwoChunks(t *testing.T) {
	newEnv(t, ReplyFetch, memreg.Regular, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(64<<10, 5)
		parked, allocated := e.st.ParkedReplies(), e.server.Mem.AllocatedBytes()
		e.ct.DropDone = true
		dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
		if _, n, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil || n != 64<<10 {
			t.Fatalf("get: n=%d err=%v", n, err)
		}
		p.Sleep(time.Millisecond)
		if len(e.st.parked) != 1 {
			t.Fatalf("%d replies parked, want the READ's", len(e.st.parked))
		}
		var key connXID
		var pr parkedReply
		for key, pr = range e.st.parked { // its one entry
		}
		if pr.n != 2 || pr.chunks[0] == nil || pr.chunks[1] == nil || pr.chunks[0] == pr.chunks[1] {
			t.Fatalf("the READ parked %d chunks (%p, %p), want its bulk staging and its deposit", pr.n, pr.chunks[0], pr.chunks[1])
		}
		if e.server.Mem.AllocatedBytes() <= allocated {
			t.Error("the parked chunks hold no server memory")
		}
		done := Header{XID: key.xid, Credits: uint32(e.ct.cfg.Credits), Type: MsgDone}
		e.ct.send(key.xid, done.Encode())
		p.Sleep(time.Millisecond)
		if e.st.ParkedReplies() != parked || e.server.Mem.AllocatedBytes() != allocated {
			t.Errorf("after the DONE: %d parked replies and %d bytes allocated, want %d and %d",
				e.st.ParkedReplies(), e.server.Mem.AllocatedBytes(), parked, allocated)
		}
		for _, c := range pr.chunks {
			if !c.Buf.Freed() {
				t.Errorf("parked chunk %p still allocated after the DONE", c)
			}
		}
	})
}
