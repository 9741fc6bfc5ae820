package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/oncrpc"
	"repro/internal/xdr"
)

// echoSvc returns args as results and reflects bulk.
type echoSvc struct{ stored []byte }

func (s *echoSvc) Name() string    { return "echo" }
func (s *echoSvc) Program() uint32 { return 900 }
func (s *echoSvc) Version() uint32 { return 1 }
func (s *echoSvc) HandleThen(req *oncrpc.ServerRequest, resp *oncrpc.ServerResponse, fn func(any), arg any) {
	*resp = s.handle(req)
	fn(arg)
}

func (s *echoSvc) handle(req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	switch req.Header.Proc {
	case 1: // PUT
		if req.Bulk != nil && req.Bulk.Data != nil {
			s.stored = append([]byte(nil), req.Bulk.Data[:req.Bulk.Len]...)
		}
		return oncrpc.ServerResponse{Stat: oncrpc.Success}
	case 2: // GET
		return oncrpc.ServerResponse{Stat: oncrpc.Success, Bulk: oncrpc.NewBulk(s.stored)}
	}
	req.Reply.FixedOpaque(req.Args)
	return oncrpc.ServerResponse{Stat: oncrpc.Success}
}

func gigeNode(fab *ibsim.Fabric, name string) *ibsim.Node {
	return fab.AddNode(ibsim.NodeConfig{
		Name: name, Cores: 4,
		PortBandwidth: 125e6, PortLatency: 50 * time.Microsecond,
		CopyNsPerByte: 0.33,
	})
}

func TestStreamRPCRoundTrip(t *testing.T) {
	sim := des.New()
	fab := ibsim.NewFabric(sim, true)
	cn := gigeNode(fab, "client")
	sn := gigeNode(fab, "server")
	svc := &echoSvc{}
	d := oncrpc.NewDispatcher()
	d.Register(svc)
	l := NewListener(sn, d, Config{})
	conn := Dial(cn, l)
	rpc := oncrpc.NewClient(conn, 900, 1, oncrpc.Auth{})
	sim.Spawn("client", func(p *des.Proc) {
		res, _, err := rpc.Call(p, 3, func(e *xdr.Encoder) { e.FixedOpaque([]byte("over tcp")) }, oncrpc.CallOpts{})
		if err != nil || string(res) != "over tcp" {
			t.Errorf("echo: %q %v", res, err)
		}
		payload := make([]byte, 32<<10)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		if _, _, err := rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)}); err != nil {
			t.Errorf("put: %v", err)
		}
		dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
		_, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		if err != nil || n != 32<<10 {
			t.Errorf("get: n=%d err=%v", n, err)
		}
		if !bytes.Equal(dst.Data, payload) {
			t.Error("bulk corrupted over stream")
		}
	})
	sim.Run()
}

// A message that is not an ONC RPC call is counted by the dispatcher, once,
// and owed no reply; the connection keeps serving.
func TestStreamCountsNonCalls(t *testing.T) {
	sim := des.New()
	fab := ibsim.NewFabric(sim, true)
	cn := gigeNode(fab, "client")
	sn := gigeNode(fab, "server")
	d := oncrpc.NewDispatcher()
	d.Register(&echoSvc{})
	l := NewListener(sn, d, Config{})
	conn := Dial(cn, l)
	rpc := oncrpc.NewClient(conn, 900, 1, oncrpc.Auth{})
	sim.Spawn("client", func(p *des.Proc) {
		sim.Spawn("intruder", func(ip *des.Proc) {
			conn.Roundtrip(ip, &oncrpc.Request{XID: 1, Header: oncrpc.EncodeReply(1, oncrpc.Success, nil)})
			t.Error("a message that is not a call was answered")
		})
		p.Sleep(time.Millisecond)
		if n := d.BadCalls(); n != 1 {
			t.Errorf("BadCalls = %d, want 1", n)
		}
		res, _, err := rpc.Call(p, 3, func(e *xdr.Encoder) { e.FixedOpaque([]byte("next")) }, oncrpc.CallOpts{})
		if err != nil || string(res) != "next" {
			t.Errorf("call after a non-call: %q %v", res, err)
		}
	})
	sim.Run()
}

func TestGigELinkBoundThroughput(t *testing.T) {
	sim := des.New()
	fab := ibsim.NewFabric(sim, false)
	cn := gigeNode(fab, "client")
	sn := gigeNode(fab, "server")
	svc := &echoSvc{stored: make([]byte, 1<<20)}
	d := oncrpc.NewDispatcher()
	d.Register(svc)
	l := NewListener(sn, d, Config{})
	conn := Dial(cn, l)
	rpc := oncrpc.NewClient(conn, 900, 1, oncrpc.Auth{})
	var moved int64
	var elapsed des.Time
	sim.Spawn("client", func(p *des.Proc) {
		start := p.Now()
		for i := 0; i < 32; i++ {
			dst := &oncrpc.Bulk{Len: 1 << 20}
			_, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			moved += int64(n)
		}
		elapsed = p.Now() - start
	})
	sim.Run()
	mbps := float64(moved) / 1e6 / elapsed.Seconds()
	// Payload throughput on a 125 MB/s link with frame overhead: ~105-118.
	if mbps < 95 || mbps > 120 {
		t.Fatalf("GigE stream throughput = %.1f MB/s, want ~105-118", mbps)
	}
}

func TestIncastPenaltyDegradesAggregate(t *testing.T) {
	measure := func(clients int, penalty float64) float64 {
		sim := des.New()
		fab := ibsim.NewFabric(sim, false)
		sn := gigeNode(fab, "server")
		svc := &echoSvc{stored: make([]byte, 1<<20)}
		d := oncrpc.NewDispatcher()
		d.Register(svc)
		l := NewListener(sn, d, Config{IncastPenalty: penalty})
		var moved int64
		var last des.Time
		for i := 0; i < clients; i++ {
			cn := gigeNode(fab, "client")
			conn := Dial(cn, l)
			rpc := oncrpc.NewClient(conn, 900, 1, oncrpc.Auth{})
			sim.Spawn("c", func(p *des.Proc) {
				for j := 0; j < 8; j++ {
					dst := &oncrpc.Bulk{Len: 1 << 20}
					_, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
					if err != nil {
						t.Errorf("get: %v", err)
						return
					}
					moved += int64(n)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		sim.Run()
		return float64(moved) / 1e6 / last.Seconds()
	}
	one := measure(1, 0.08)
	four := measure(4, 0.08)
	if four >= one {
		t.Fatalf("incast: 4 clients (%.1f MB/s) should be below 1 client (%.1f MB/s)", four, one)
	}
}

func TestCPUCostScalesWithBytes(t *testing.T) {
	sim := des.New()
	fab := ibsim.NewFabric(sim, false)
	cn := fab.AddNode(ibsim.NodeConfig{Name: "c", Cores: 2, PortBandwidth: 900e6, CopyNsPerByte: 1})
	sn := fab.AddNode(ibsim.NodeConfig{Name: "s", Cores: 2, PortBandwidth: 900e6, CopyNsPerByte: 1})
	svc := &echoSvc{stored: make([]byte, 1<<20)}
	d := oncrpc.NewDispatcher()
	d.Register(svc)
	l := NewListener(sn, d, Config{})
	conn := Dial(cn, l)
	rpc := oncrpc.NewClient(conn, 900, 1, oncrpc.Auth{})
	sim.Spawn("client", func(p *des.Proc) {
		sn.CPU.ResetWindow()
		for i := 0; i < 4; i++ {
			dst := &oncrpc.Bulk{Len: 1 << 20}
			rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
		}
		// 4 MiB * 2 copies * 1ns/B = ~8.4ms of server CPU minimum.
		if busy := sn.CPU.BusySeconds(); busy < 0.008 {
			t.Errorf("server CPU busy = %.4fs, want >= 0.008 (copies charged)", busy)
		}
	})
	sim.Run()
}
