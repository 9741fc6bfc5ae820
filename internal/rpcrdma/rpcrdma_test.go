package rpcrdma

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
	"repro/internal/xdr"
)

// blobService stores and returns payloads: proc 1 = PUT (bulk in), proc 2 =
// GET (bulk out), proc 3 = BIGREPLY (large inline results), proc 4 = ECHO.
type blobService struct {
	stored []byte
}

func (s *blobService) Name() string    { return "blob" }
func (s *blobService) Program() uint32 { return 4242 }
func (s *blobService) Version() uint32 { return 1 }

func (s *blobService) HandleThen(req *oncrpc.ServerRequest, resp *oncrpc.ServerResponse, fn func(any), arg any) {
	*resp = s.handle(req)
	fn(arg)
}

func (s *blobService) handle(req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	switch req.Header.Proc {
	case 1: // PUT
		if req.Bulk != nil {
			if req.Bulk.Data != nil {
				s.stored = append([]byte(nil), req.Bulk.Data[:req.Bulk.Len]...)
			} else {
				s.stored = make([]byte, req.Bulk.Len)
			}
		}
	case 2: // GET
		n := len(s.stored)
		if req.RecvBulkCap > 0 && n > req.RecvBulkCap {
			n = req.RecvBulkCap
		}
		bulk := req.ReplyBuf
		if bulk == nil {
			bulk = &oncrpc.Bulk{Data: make([]byte, n)}
		}
		if bulk.Data != nil {
			copy(bulk.Data, s.stored[:n])
		}
		bulk.Len = n
		return oncrpc.ServerResponse{Stat: oncrpc.Success, Bulk: bulk}
	case 3: // BIGREPLY: inline results larger than the inline threshold
		big := make([]byte, 8000)
		for i := range big {
			big[i] = byte(i * 7)
		}
		req.Reply.FixedOpaque(big)
	case 4: // ECHO args
		req.Reply.FixedOpaque(req.Args)
	default:
		return oncrpc.ServerResponse{Stat: oncrpc.ProcUnavail}
	}
	return oncrpc.ServerResponse{Stat: oncrpc.Success}
}

// raw marshals b as a call's arguments: verbatim, as the echo procedure
// reflects them, when b is 4-byte aligned.
func raw(b []byte) func(*xdr.Encoder) { return func(e *xdr.Encoder) { e.FixedOpaque(b) } }

type env struct {
	sim    *des.Sim
	fab    *ibsim.Fabric
	client *ibsim.Node
	server *ibsim.Node
	ct     *ClientTransport
	st     *ServerTransport
	rpc    *oncrpc.Client
	svc    *blobService
}

// newEnv wires a full client/server pair over the fabric inside a setup
// process, then runs body as a client process.
func newEnv(t *testing.T, design Design, mode memreg.Mode, body func(p *des.Proc, e *env)) *env {
	t.Helper()
	sim := des.New()
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
	e := &env{sim: sim, fab: fab}
	e.client = fab.AddNode(cCfg)
	e.server = fab.AddNode(sCfg)
	e.svc = &blobService{}
	sim.Spawn("setup", func(p *des.Proc) {
		cq, sq := fab.Connect(e.client, e.server, ibsim.QPConfig{})
		cmgr := memreg.NewManager(p, e.client, memreg.Config{Mode: mode})
		smgr := memreg.NewManager(p, e.server, memreg.Config{Mode: mode})
		disp := oncrpc.NewDispatcher()
		disp.Register(e.svc)
		e.st = NewServerTransport(p, e.server, smgr, disp, Config{Design: design, Workers: 4})
		e.st.TryServe(sq)
		e.ct = NewClientTransport(p, cq, cmgr, Config{Design: design})
		e.rpc = oncrpc.NewClient(e.ct, 4242, 1, oncrpc.Auth{})
		body(p, e)
	})
	sim.Run()
	return e
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%241)
	}
	return b
}

func testBothDesigns(t *testing.T, fn func(t *testing.T, design Design)) {
	for _, d := range []Design{ReadWrite, ReadRead, ReplyFetch} {
		d := d
		t.Run(d.String(), func(t *testing.T) { fn(t, d) })
	}
}

func TestInlineEcho(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			res, _, err := e.rpc.Call(p, 4, raw([]byte("hello, rdma!")), oncrpc.CallOpts{})
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			if string(res) != "hello, rdma!" {
				t.Errorf("res = %q", res)
			}
		})
	})
}

func TestBulkPutGetRoundTrip(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			payload := pattern(128<<10, 5)
			// PUT: client-side bulk travels as read chunks (server pulls).
			_, _, err := e.rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)})
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if !bytes.Equal(e.svc.stored, payload) {
				t.Error("server received corrupted payload")
				return
			}
			// GET: reply bulk via write chunks (RW) or server read chunks (RR).
			dst := &oncrpc.Bulk{Data: make([]byte, 128<<10), Len: 128 << 10}
			_, n, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
			if err != nil || n != 128<<10 {
				t.Errorf("get: n=%d err=%v", n, err)
				return
			}
			if !bytes.Equal(dst.Data, payload) {
				t.Error("client received corrupted payload")
			}
		})
	})
}

func TestBulkAllModes(t *testing.T) {
	for _, mode := range []memreg.Mode{memreg.Regular, memreg.FMR, memreg.AllPhysical, memreg.Cache} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			testBothDesigns(t, func(t *testing.T, design Design) {
				newEnv(t, design, mode, func(p *des.Proc, e *env) {
					payload := pattern(200<<10, 9)
					if _, _, err := e.rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)}); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					dst := &oncrpc.Bulk{Data: make([]byte, 200<<10), Len: 200 << 10}
					_, n, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
					if err != nil || n != 200<<10 {
						t.Errorf("get: n=%d err=%v", n, err)
						return
					}
					if !bytes.Equal(dst.Data, payload) {
						t.Error("payload corrupted end to end")
					}
				})
			})
		})
	}
}

func TestLongReply(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			res, _, err := e.rpc.Call(p, 3, nil, oncrpc.CallOpts{LongReplyCap: 16 << 10})
			if err != nil {
				t.Errorf("bigreply: %v", err)
				return
			}
			if len(res) != 8000 {
				t.Errorf("len = %d, want 8000", len(res))
				return
			}
			for i := range res {
				if res[i] != byte(i*7) {
					t.Errorf("long reply corrupted at %d", i)
					return
				}
			}
			if design == ReplyFetch {
				// The slot subsumes the long-reply chunk: the whole message is
				// deposited, never sent as a NOMSG long reply.
				if e.st.LongReplies != 0 || e.st.Deposits == 0 {
					t.Errorf("reply-fetch: long replies = %d, deposits = %d", e.st.LongReplies, e.st.Deposits)
				}
			} else if e.st.LongReplies != 1 {
				t.Errorf("server long replies = %d", e.st.LongReplies)
			}
		})
	})
}

func TestLongCall(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			bigArgs := pattern(6000, 3) // well past the 1 KiB inline threshold
			res, _, err := e.rpc.Call(p, 4, raw(bigArgs), oncrpc.CallOpts{LongReplyCap: 8 << 10})
			if err != nil {
				t.Errorf("long call: %v", err)
				return
			}
			if !bytes.Equal(res, bigArgs) {
				t.Error("long call echo corrupted")
			}
			if e.st.LongCalls != 1 {
				t.Errorf("server long calls = %d", e.st.LongCalls)
			}
		})
	})
}

// TestReadWriteNeverExposesServer is the paper's core security claim: under
// the Read-Write design no server memory is ever remotely accessible.
func TestReadWriteNeverExposesServer(t *testing.T) {
	newEnv(t, ReadWrite, memreg.Regular, func(p *des.Proc, e *env) {
		payload := pattern(64<<10, 1)
		e.rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)})
		dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
		e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		e.rpc.Call(p, 3, nil, oncrpc.CallOpts{LongReplyCap: 16 << 10})
		if got := e.server.HCA.RemoteExposedBytes(); got != 0 {
			t.Errorf("Read-Write server exposed %d bytes", got)
		}
	})
}

// TestReadReadExposesServer shows the counterpart: the Read-Read design
// necessarily exposes server buffers while replies are in flight.
func TestReadReadExposesServer(t *testing.T) {
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		payload := pattern(64<<10, 1)
		e.rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)})
		if e.fab.Counters.Get("mr.remote_exposed") == 0 {
			// PUT only pulls client chunks; do a GET to force exposure.
		}
		dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
		e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		exposedEver := false
		for _, cv := range e.fab.Counters.Snapshot() {
			if cv.Name == "mr.remote_exposed" && cv.Value > 0 {
				exposedEver = true
			}
		}
		if !exposedEver {
			t.Error("Read-Read design should have exposed server buffers")
		}
	})
}

// TestDoneReleasesServerBuffers verifies the DONE lifecycle, and that a
// malicious client that withholds DONE pins server reply buffers until the
// pool exhausts (§4.1).
func TestDoneReleasesServerBuffers(t *testing.T) {
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(32<<10, 2)
		dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
		if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
			t.Errorf("get: %v", err)
		}
		p.Sleep(time.Millisecond) // let the DONE drain
		if e.st.ParkedReplies() != 0 {
			t.Errorf("parked replies = %d after DONE", e.st.ParkedReplies())
		}
		if e.ct.DoneSent == 0 {
			t.Error("client sent no DONE")
		}
	})
}

func TestMaliciousClientPinsServerBuffers(t *testing.T) {
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		e.ct.DropDone = true
		e.svc.stored = pattern(32<<10, 2)
		for i := 0; i < 5; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
			if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Errorf("get %d: %v", i, err)
			}
		}
		p.Sleep(time.Millisecond)
		if e.st.ParkedReplies() != 5 {
			t.Errorf("parked replies = %d, want 5 (withheld DONEs pin buffers)", e.st.ParkedReplies())
		}
		if e.server.HCA.RemoteExposedBytes() == 0 {
			t.Error("pinned reply buffers should remain exposed")
		}
	})
}

func TestConcurrentCallsShareTransport(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		sim := des.New()
		fab := ibsim.NewFabric(sim, true)
		client := fab.AddNode(ibsim.NodeConfig{Name: "client", Cores: 4})
		server := fab.AddNode(ibsim.NodeConfig{Name: "server", Cores: 4})
		svc := &blobService{stored: pattern(64<<10, 7)}
		doneCount := 0
		sim.Spawn("setup", func(p *des.Proc) {
			cq, sq := fab.Connect(client, server, ibsim.QPConfig{})
			cmgr := memreg.NewManager(p, client, memreg.Config{})
			smgr := memreg.NewManager(p, server, memreg.Config{})
			disp := oncrpc.NewDispatcher()
			disp.Register(svc)
			st := NewServerTransport(p, server, smgr, disp, Config{Design: design, Workers: 8})
			st.TryServe(sq)
			ct := NewClientTransport(p, cq, cmgr, Config{Design: design})
			rpc := oncrpc.NewClient(ct, 4242, 1, oncrpc.Auth{})
			for i := 0; i < 8; i++ {
				sim.Spawn("thread", func(tp *des.Proc) {
					for j := 0; j < 5; j++ {
						dst := &oncrpc.Bulk{Data: make([]byte, 64<<10), Len: 64 << 10}
						_, n, err := rpc.Call(tp, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
						if err != nil || n != 64<<10 {
							t.Errorf("thread call: n=%d err=%v", n, err)
							return
						}
						if !bytes.Equal(dst.Data, svc.stored) {
							t.Error("concurrent call corrupted data")
							return
						}
						doneCount++
					}
				})
			}
		})
		sim.Run()
		if doneCount != 40 {
			t.Fatalf("completed %d calls, want 40", doneCount)
		}
	})
}

// TestReadWriteFasterThanReadRead checks the headline performance claim on
// a single-threaded READ-heavy exchange: fewer messages + no DONE round
// trip means lower per-op latency.
func TestReadWriteFasterThanReadRead(t *testing.T) {
	elapsed := map[Design]des.Time{}
	for _, d := range []Design{ReadWrite, ReadRead} {
		var start, end des.Time
		newEnv(t, d, memreg.Regular, func(p *des.Proc, e *env) {
			e.svc.stored = pattern(128<<10, 4)
			start = p.Now()
			for i := 0; i < 20; i++ {
				dst := &oncrpc.Bulk{Data: make([]byte, 128<<10), Len: 128 << 10}
				if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
			end = p.Now()
		})
		elapsed[d] = end - start
	}
	if elapsed[ReadWrite] >= elapsed[ReadRead] {
		t.Fatalf("read-write (%v) should beat read-read (%v)", elapsed[ReadWrite], elapsed[ReadRead])
	}
}

// TestDirectIOZeroCopy verifies the zero-copy path registers the caller's
// buffer and lands data in place without a staging copy.
func TestDirectIOZeroCopy(t *testing.T) {
	newEnv(t, ReadWrite, memreg.Regular, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(64<<10, 8)
		user := e.client.Mem.AllocMaterialized(64 << 10)
		dst := &oncrpc.Bulk{Data: user.Data(), Len: 64 << 10, Handle: user}
		before := e.client.CPU.BusySeconds()
		_, n, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst, DirectIO: true})
		if err != nil || n != 64<<10 {
			t.Fatalf("direct get: n=%d err=%v", n, err)
		}
		if !bytes.Equal(user.Data(), e.svc.stored) {
			t.Fatal("direct I/O data corrupted")
		}
		_ = before
	})
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(xid, credits uint32, rl []uint32, wl []uint32) bool {
		h := Header{XID: xid, Credits: credits, Type: MsgRDMA}
		for i, v := range rl {
			if i >= 16 {
				break
			}
			h.ReadList = append(h.ReadList, ReadSeg{Position: v % 4096, Segment: Segment{Rkey: v, Length: v % 100000, Addr: uint64(v) << 12}})
		}
		for i, v := range wl {
			if i >= 16 {
				break
			}
			h.WriteList = append(h.WriteList, Segment{Rkey: v, Length: v % 100000, Addr: uint64(v) << 8})
		}
		body := []byte{1, 2, 3, 4}
		wire := append(h.Encode(), body...)
		for _, room := range []int{0, hdrBase, h.wireSize(), h.wireSize() + 8} {
			// Framed in place, slid up in spare capacity or moved: the same bytes.
			buf := append(make([]byte, room, room+len(body)+2*segSize), body...)
			if one := h.frame(buf, room); !bytes.Equal(one, wire) {
				return false
			}
		}
		got, gotBody, err := DecodeHeader(wire)
		if err != nil || got.XID != xid || got.Credits != credits {
			return false
		}
		if len(got.ReadList) != len(h.ReadList) || len(got.WriteList) != len(h.WriteList) {
			return false
		}
		for i := range h.ReadList {
			if got.ReadList[i] != h.ReadList[i] {
				return false
			}
		}
		return bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderCodecAllocs pins the codec's share of the per-RPC allocation
// count: a header framed into the room kept for it costs nothing to encode,
// and the Header to decode, plus one exactly-sized list per chunk list it
// carries, however many segments that list has.
func TestHeaderCodecAllocs(t *testing.T) {
	segs := make([]Segment, 4)
	reads := make([]ReadSeg, 4)
	for i := range segs {
		segs[i] = Segment{Rkey: uint32(i + 1), Length: 32 << 10, Addr: uint64(i) << 15}
		reads[i] = ReadSeg{Position: 8, Segment: segs[i]}
	}
	body := make([]byte, 100)
	for _, tc := range []struct {
		name string
		h    Header
		want float64
	}{
		{"chunk-free", Header{XID: 7, Credits: 32, Type: MsgRDMA}, 1},
		{"four-segment write list", Header{XID: 7, Credits: 32, Type: MsgRDMA, WriteList: segs}, 2},
		{"three four-segment lists", Header{XID: 7, Credits: 32, Type: MsgRDMA, ReadList: reads, WriteList: segs, ReplyChunk: segs}, 4},
	} {
		room := tc.h.wireSize()
		buf := append(make([]byte, room), body...)
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeHeader(tc.h.frame(buf, room)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("encode + decode of a %s header: %.0f allocs, want <= %.0f", tc.name, allocs, tc.want)
		}
	}
}

func TestDecodeHeaderHostileInput(t *testing.T) {
	// Truncations and absurd counts must error, never panic.
	h := Header{XID: 1, Type: MsgRDMA, ReadList: []ReadSeg{{Position: 4, Segment: Segment{Rkey: 2, Length: 3, Addr: 4}}}}
	wire := h.Encode()
	for i := 0; i < len(wire); i += 2 {
		if _, _, err := DecodeHeader(wire[:i]); err == nil {
			t.Fatalf("truncated header at %d decoded", i)
		}
	}
	// Claim 2^32-1 read segments.
	bad := append([]byte(nil), wire[:16]...)
	bad = append(bad, 0xff, 0xff, 0xff, 0xff)
	if _, _, err := DecodeHeader(bad); err == nil {
		t.Fatal("hostile segment count accepted")
	}
}

// A list is sized from a count the sender chose, so the count is checked
// against what is left of the frame before anything is sized by it: a 28-byte
// frame claiming maxSegs segments in any of the three list positions costs the
// host nothing and is an ErrBadHeader, while a header that really carries
// maxSegs segments per list still decodes.
func TestDecodeHeaderCountBeyondFrame(t *testing.T) {
	for pos, name := range []string{"read list", "write list", "reply chunk"} {
		e := xdr.NewEncoder(nil)
		for _, v := range []uint32{7, Version, 32, uint32(MsgRDMA)} {
			e.Uint32(v)
		}
		for i := 0; i < 3; i++ {
			n := uint32(0)
			if i == pos {
				n = maxSegs
			}
			e.Uint32(n)
		}
		frame := e.Bytes()
		var h Header
		var err, errInto error
		allocs := testing.AllocsPerRun(100, func() {
			_, _, err = DecodeHeader(frame)
			_, errInto = DecodeHeaderInto(&h, frame)
		})
		if !errors.Is(err, ErrBadHeader) || !errors.Is(errInto, ErrBadHeader) {
			t.Errorf("%d-byte frame claiming %d segments in its %s: err = %v and %v, want ErrBadHeader", len(frame), maxSegs, name, err, errInto)
		}
		if allocs != 0 {
			t.Errorf("%d-byte frame claiming %d segments in its %s: %.0f allocations, want 0", len(frame), maxSegs, name, allocs)
		}
	}

	full := Header{XID: 7, Credits: 32, Type: MsgRDMA}
	for i := uint32(0); i < maxSegs; i++ {
		seg := Segment{Rkey: i + 1, Length: 4096, Addr: uint64(i) << 12}
		full.ReadList = append(full.ReadList, ReadSeg{Position: 8, Segment: seg})
		full.WriteList = append(full.WriteList, seg)
		full.ReplyChunk = append(full.ReplyChunk, seg)
	}
	got, body, err := DecodeHeader(append(full.Encode(), "body"...))
	if err != nil || string(body) != "body" || !reflect.DeepEqual(*got, full) {
		t.Fatalf("header with %d segments per list: err %v, body %q, equal %v", maxSegs, err, body, err == nil && reflect.DeepEqual(*got, full))
	}
	full.WriteList = append(full.WriteList, Segment{})
	if _, _, err := DecodeHeader(full.Encode()); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("header with %d write segments: err = %v, want ErrBadHeader", maxSegs+1, err)
	}
}

// A header decoded into one the caller reuses takes over its lists' storage:
// the second decode allocates nothing and leaves no stale segment behind.
func TestDecodeHeaderIntoReusesLists(t *testing.T) {
	segs := []Segment{{Rkey: 1, Length: 4096, Addr: 1 << 12}, {Rkey: 2, Length: 4096, Addr: 2 << 12}}
	long := (&Header{XID: 1, Type: MsgRDMA, ReadList: []ReadSeg{{Position: 8, Segment: segs[0]}}, WriteList: segs, ReplyChunk: segs}).frame([]byte("x"), 0)
	short := (&Header{XID: 2, Type: MsgRDMA, WriteList: segs[:1]}).Encode()
	var h Header
	if _, err := DecodeHeaderInto(&h, long); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeHeaderInto(&h, short); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decode into a header with capacity: %.0f allocations, want 0", allocs)
	}
	if h.XID != 2 || len(h.ReadList) != 0 || len(h.ReplyChunk) != 0 || len(h.WriteList) != 1 || h.WriteList[0] != segs[0] {
		t.Errorf("reused header = %+v, want XID 2 with the one write segment", h)
	}
}

// TestOversizedReplySqueezedInline covers the robustness fallback: a reply
// slightly over the inline threshold with no reply chunk advertised still
// gets delivered through the posted receive's headroom.
func TestOversizedReplySqueezedInline(t *testing.T) {
	testBothDesigns(t, func(t *testing.T, design Design) {
		newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
			// Proc 4 echoes args: send ~1.2 KiB so the reply exceeds the
			// 1 KiB threshold but fits in threshold+512 receives. Note the
			// CALL goes as a long call (also >1 KiB), which is fine.
			args := pattern(1200, 6)
			res, _, err := e.rpc.Call(p, 4, raw(args), oncrpc.CallOpts{})
			if err != nil {
				t.Errorf("oversized echo: %v", err)
				return
			}
			if !bytes.Equal(res, args) {
				t.Error("squeezed-inline reply corrupted")
			}
			if e.st.LongReplies != 0 {
				t.Errorf("long replies = %d, want 0 (no reply chunk advertised)", e.st.LongReplies)
			}
		})
	})
}

// TestDynamicCreditsOffByDefault pins the default behaviour: without the
// option, grants never move.
func TestDynamicCreditsOffByDefault(t *testing.T) {
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		e.svc.stored = pattern(16<<10, 3)
		before := e.ct.GrantedCredits()
		e.ct.DropDone = true
		for i := 0; i < 4; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 16<<10), Len: 16 << 10}
			e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		}
		if e.ct.GrantedCredits() != before {
			t.Errorf("grant moved from %d to %d with dynamic credits off", before, e.ct.GrantedCredits())
		}
	})
}

// FuzzDecodeHeaderInto holds the header decoder to three properties on any
// frame: it does not panic, it allocates at most one object per byte of frame
// (a count the frame cannot back sizes nothing), and what decodes encodes
// back to the same bytes, body included.
func FuzzDecodeHeaderInto(f *testing.F) {
	segs := []Segment{{Rkey: 1, Length: 4096, Addr: 1 << 12}, {Rkey: 2, Length: 4096, Addr: 2 << 12}}
	for _, h := range []Header{
		{XID: 7, Credits: 32, Type: MsgRDMA},
		{XID: 1, Type: MsgRDMA, ReadList: []ReadSeg{{Position: 4, Segment: Segment{Rkey: 2, Length: 3, Addr: 4}}}},
		{XID: 1, Type: MsgRDMA, ReadList: []ReadSeg{{Position: 8, Segment: segs[0]}}, WriteList: segs, ReplyChunk: segs},
		{XID: 3, Credits: 1, Type: MsgDone},
	} {
		f.Add(append(h.Encode(), "body"...))
	}
	f.Add(garbage)
	f.Fuzz(func(t *testing.T, frame []byte) {
		allocs := testing.AllocsPerRun(1, func() {
			var h Header
			DecodeHeaderInto(&h, frame)
		})
		if allocs > float64(len(frame)) {
			t.Errorf("decoding a %d-byte frame: %.0f allocations", len(frame), allocs)
		}
		var h Header
		body, err := DecodeHeaderInto(&h, frame)
		if err != nil {
			return
		}
		if again := append(h.Encode(), body...); !bytes.Equal(again, frame) {
			t.Errorf("%x decodes to %+v and %x, which encode to %x", frame, h, body, again)
		}
	})
}
