package oncrpc

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/xdr"
)

// TestRequestFillsItsSizeClass pins Request at 288 bytes, one of the
// allocator's size classes, which callStore is sized to fill: a field added
// to Request comes out of the store, or every call pays for the next class.
func TestRequestFillsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n != 288 {
		t.Errorf("a Request is %d bytes, want 288 (resize callStore)", n)
	}
}

// machineService records the credential machine name each call decoded to.
type machineService struct{ machines []string }

func (*machineService) Name() string    { return "machine" }
func (*machineService) Program() uint32 { return 778 }
func (*machineService) Version() uint32 { return 1 }
func (s *machineService) Handle(p *des.Proc, req *ServerRequest) ServerResponse {
	s.machines = append(s.machines, req.Header.Cred.Machine)
	return ServerResponse{Stat: Success}
}

// TestDispatchNullAllocatesNothing: in steady state, a call with no arguments
// and no results whose credential names the transport's peer costs Dispatch
// no allocation — the request is the dispatcher's, the reply is carved from
// its block and the machine name is the peer's string — and the request it
// takes back is zeroed.
func TestDispatchNullAllocatesNothing(t *testing.T) {
	d := NewDispatcher()
	d.Register(echoService{})
	raw := EncodeCall(&CallHeader{XID: 1, Prog: 777, Vers: 1, Cred: Auth{Flavor: AuthSys, Machine: "client0"}}, nil)
	opts := DispatchOpts{Room: 28, Peer: "client0"}
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		if allocs := testing.AllocsPerRun(100, func() { d.Dispatch(p, raw, opts) }); allocs != 0 {
			t.Errorf("Dispatch of a NULL: %.0f allocations, want 0", allocs)
		}
	})
	sim.Run()
	if len(d.free) != 1 {
		t.Errorf("%d free requests after one call at a time, want 1", len(d.free))
	} else if !reflect.DeepEqual(*d.free[0], ServerRequest{}) {
		t.Errorf("free request = %+v, want it zeroed", *d.free[0])
	}
}

// TestMachineNameIsThePeersOnlyWhenEqual: a credential naming the peer decodes
// to the peer's own string, a forged one still to the name it carries, and
// the DRC keys both by the peer.
func TestMachineNameIsThePeersOnlyWhenEqual(t *testing.T) {
	d := NewDispatcher()
	svc := &machineService{}
	d.Register(svc)
	d.EnableDRC(8)
	peer := "alice"
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		for xid, machine := range []string{"alice", "mallory"} {
			raw := EncodeCall(&CallHeader{XID: uint32(xid), Prog: 778, Vers: 1, Cred: Auth{Flavor: AuthSys, Machine: machine}}, nil)
			if _, _, err := d.Dispatch(p, raw, DispatchOpts{Peer: peer}); err != nil {
				t.Fatal(err)
			}
		}
	})
	sim.Run()
	if !reflect.DeepEqual(svc.machines, []string{"alice", "mallory"}) {
		t.Fatalf("machine names = %q, want the credentials' alice and mallory", svc.machines)
	}
	if unsafe.StringData(svc.machines[0]) != unsafe.StringData(peer) {
		t.Error("the honest credential's machine name is a new string, not the peer's")
	}
	if cl := d.drc.clients["alice"]; len(d.drc.clients) != 1 || cl == nil || len(cl.entries) != 2 {
		t.Errorf("DRC windows = %v, want both calls under the peer alice", d.drc.clients)
	}
}

// sizedService claims results of 8 bytes, echoes its arguments, and appends
// fill bytes of 0xee when the first argument byte asks for them.
type sizedService struct{}

func (sizedService) Name() string                { return "sized" }
func (sizedService) Program() uint32             { return 779 }
func (sizedService) Version() uint32             { return 1 }
func (sizedService) ResultsSize(proc uint32) int { return 8 }
func (sizedService) Handle(p *des.Proc, req *ServerRequest) ServerResponse {
	req.Reply.FixedOpaque(req.Args)
	if len(req.Args) > 0 && req.Args[0] == 'x' {
		req.Reply.FixedOpaque(bytes.Repeat([]byte{0xee}, 64))
	}
	return ServerResponse{Stat: Success}
}

// TestMessagesOutgrowingTheirStores: a call larger than its request's inline
// store and a reply larger than its share of a block both round-trip, and a
// reply that outgrows the size the service announced moves out of the block
// instead of writing over the reply carved next to it.
func TestMessagesOutgrowingTheirStores(t *testing.T) {
	d := NewDispatcher()
	d.Register(sizedService{})
	c := NewClient(&loopbackTransport{d: d}, 779, 1, Auth{Flavor: AuthNone})
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		big := bytes.Repeat([]byte("0123456789abcdef"), replyBlock/4/16+1)
		res, _, err := c.Call(p, 1, func(e *xdr.Encoder) { e.FixedOpaque(big) }, CallOpts{})
		if err != nil || !bytes.Equal(res, big) {
			t.Errorf("a %d-byte call and reply: err %v, results equal %v", len(big), err, bytes.Equal(res, big))
		}

		first, _, err := d.Dispatch(p, EncodeCall(&CallHeader{XID: 1, Prog: 779, Vers: 1}, []byte("x...")), DispatchOpts{Room: 16})
		if err != nil || len(first) != 16+replyPrefix+4+64 {
			t.Fatalf("outgrowing reply: %d bytes, err %v", len(first), err)
		}
		firstCopy := bytes.Clone(first)
		second, _, err := d.Dispatch(p, EncodeCall(&CallHeader{XID: 2, Prog: 779, Vers: 1}, []byte("yyyy")), DispatchOpts{Room: 16})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, firstCopy) {
			t.Error("the second reply was written over the first")
		}
		if cap(second) != 16+replyPrefix+8 {
			t.Errorf("a reply's capacity is %d, want its room and announced size, %d", cap(second), 16+replyPrefix+8)
		}
	})
	sim.Run()
}

// TestDispatchDeniesWhatItDoesNotSpeak: a call that decoded as far as its XID
// but is of another RPC version, or carries a credential or verifier this
// package does not accept, is answered with RFC 5531's MSG_DENIED reply,
// behind the transport's room, and counted in BadCalls; a frame that is not
// a call gets no reply. Denying allocates nothing once the reply block is
// there.
func TestDispatchDeniesWhatItDoesNotSpeak(t *testing.T) {
	call := func(h CallHeader) []byte { h.XID, h.Prog, h.Vers = 9, 777, 1; return EncodeCall(&h, nil) }
	version := call(CallHeader{})
	version[11] = 3 // rpcvers
	manyGIDs := Auth{Flavor: AuthSys, Machine: "c", GIDs: make([]uint32, maxGIDs+1)}
	for _, tc := range []struct {
		name  string
		frame []byte
		words []uint32 // what follows the XID, or nil for no reply
	}{
		{"rpc version 3", version, []uint32{msgTypeReply, replyStatDenied, rejectRPCMismatch, 2, 2}},
		{"RPCSEC_GSS credential", call(CallHeader{Cred: Auth{Flavor: 6}}), []uint32{msgTypeReply, replyStatDenied, rejectAuthError, authBadCred}},
		{"AUTH_SYS with 17 gids", call(CallHeader{Cred: manyGIDs}), []uint32{msgTypeReply, replyStatDenied, rejectAuthError, authBadCred}},
		{"RPCSEC_GSS verifier", call(CallHeader{Verf: Auth{Flavor: 6}}), []uint32{msgTypeReply, replyStatDenied, rejectAuthError, authBadVerf}},
		{"truncated", version[:10], nil},
		{"a reply", EncodeReply(9, Success, nil), nil},
	} {
		d := NewDispatcher()
		d.Register(echoService{})
		sim := des.New()
		sim.Spawn("t", func(p *des.Proc) {
			reply, _, err := d.Dispatch(p, tc.frame, DispatchOpts{Room: 28})
			if err == nil || d.BadCalls() != 1 {
				t.Errorf("%s: err %v, BadCalls %d; want an error, counted", tc.name, err, d.BadCalls())
			}
			if tc.words == nil {
				if reply != nil {
					t.Errorf("%s: reply %x, want none", tc.name, reply)
				}
				return
			}
			want := binary.BigEndian.AppendUint32(make([]byte, 28), 9)
			for _, w := range tc.words {
				want = binary.BigEndian.AppendUint32(want, w)
			}
			if !bytes.Equal(reply, want) {
				t.Errorf("%s: reply %x, want %x", tc.name, reply, want)
			}
			if _, _, _, err := DecodeReply(reply[28:]); err != ErrDenied {
				t.Errorf("%s: the reply decodes with %v, want ErrDenied", tc.name, err)
			}
			if allocs := testing.AllocsPerRun(10, func() { d.Dispatch(p, tc.frame, DispatchOpts{Room: 28}) }); allocs != 0 {
				t.Errorf("%s: denying allocates %.0f objects", tc.name, allocs)
			}
		})
		sim.Run()
	}
}
