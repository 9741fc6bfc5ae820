package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// The layer drivers (D metrics): fixed-iteration loops over each layer's
// exported functions on a private simulation, reporting host ns and
// allocations per operation. They measure what the simulator costs, never
// what it simulates.

// drive runs build inside a process of a fresh simulation, then times n
// calls of the operation it returns (after n/10 warm-up calls).
func drive(n int, build func(p *des.Proc) func()) (ns, allocs float64) {
	sim := des.New()
	sim.Spawn("layer-driver", func(p *des.Proc) {
		op := build(p)
		for i := 0; i < n/10; i++ {
			op()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		ns = float64(time.Since(t0)) / float64(n)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		sim.Stop() // helper processes (echo, receiver, sampler) never finish on their own
	})
	sim.Run()
	return ns, allocs
}

// pair is a two-node LinuxDDR fabric with one connected QP pair.
func pair(p *des.Proc) (client, server *ibsim.Node, cq, sq *ibsim.QP) {
	prof := profiles.LinuxDDR()
	fab := ibsim.NewFabric(p.Sim(), false)
	prof.Client.Name, prof.Server.Name = "client", "server"
	client, server = fab.AddNode(prof.Client), fab.AddNode(prof.Server)
	cq, sq = fab.Connect(client, server, ibsim.QPConfig{})
	return client, server, cq, sq
}

// rdma times one 4 KiB RDMA Write or Read against a remote region
// registered once.
func rdma(op ibsim.Opcode) func(p *des.Proc) func() {
	return func(p *des.Proc) func() {
		client, server, cq, _ := pair(p)
		const size = 4096
		local, remote := client.Mem.Alloc(size), server.Mem.Alloc(size)
		mr := server.HCA.Register(p, remote, 0, size, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite|ibsim.AccessRemoteRead)
		return func() {
			cqe := cq.PostAndWait(p, &ibsim.SendWQE{
				Op: op, Local: []ibsim.LocalSeg{{Buf: local, Len: size}},
				RemoteKey: mr.Rkey(), RemoteAddr: mr.Start(),
			})
			if cqe.Err != nil {
				panic(fmt.Sprintf("layer driver: %v failed: %v", op, cqe.Err))
			}
		}
	}
}

// dispatcher is an NFS server over an in-memory namespace behind an ONC RPC
// dispatcher with the duplicate request cache on, and a call builder.
func dispatcher(p *des.Proc) (d *oncrpc.Dispatcher, srv *nfs3.Server, call func(proc uint32, args []byte) []byte) {
	fs := vfs.NewNamespace(p.Sim(), vfs.NewMemStore(false), 1<<40)
	srv = nfs3.NewServer(fs, nfs3.ServerConfig{})
	d = oncrpc.NewDispatcher()
	d.Register(srv)
	d.EnableDRC(256)
	var xid uint32
	cred := oncrpc.Auth{Flavor: oncrpc.AuthSys, Machine: "client0"}
	return d, srv, func(proc uint32, args []byte) []byte {
		xid++
		return oncrpc.EncodeCall(&oncrpc.CallHeader{XID: xid, Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Cred: cred}, args)
	}
}

func mustDispatch(p *des.Proc, d *oncrpc.Dispatcher, msg []byte) {
	reply, _, err := d.Dispatch(p, msg, oncrpc.DispatchOpts{Peer: "client0"})
	if err != nil || reply == nil {
		panic(fmt.Sprintf("layer driver: dispatch failed: %v", err))
	}
}

// layerDrivers runs every D driver, at 1/div of its iteration count, and
// returns its metrics.
func layerDrivers(div int) map[string]float64 {
	m := map[string]float64{}
	ns := func(name string, n int, build func(p *des.Proc) func()) {
		m[name+"_ns"], _ = drive(n/div, build)
	}
	nsAllocs := func(name string, n int, build func(p *des.Proc) func()) {
		m[name+"_ns"], m[name+"_allocs"] = drive(n/div, build)
	}

	// des: one Sleep is one schedule → park → resume; a spawn is created,
	// started and joined; a queue wake-up is one leg of a ping-pong.
	ns("des.switch", 200_000, func(p *des.Proc) func() {
		return func() { p.Sleep(1) }
	})
	ns("des.spawn", 50_000, func(p *des.Proc) func() {
		sim := p.Sim()
		return func() {
			done := des.NewEvent(sim)
			sim.Spawn("child", func(*des.Proc) { done.Fire(nil) })
			done.Wait(p)
		}
	})
	ns("des.queue_wake", 100_000, func(p *des.Proc) func() {
		sim := p.Sim()
		ping, pong := des.NewQueue(sim, "ping"), des.NewQueue(sim, "pong")
		sim.Spawn("echo", func(ep *des.Proc) {
			for {
				v, ok := ping.Get(ep)
				if !ok {
					return
				}
				pong.Put(v)
			}
		})
		return func() {
			ping.Put(1)
			pong.Get(p)
		}
	})
	m["des.queue_wake_ns"] /= 2

	// ibsim: a 64-byte Send into a posted receive, and 4 KiB RDMA ops.
	ns("ibsim.send_recv", 20_000, func(p *des.Proc) func() {
		_, _, cq, sq := pair(p)
		const ring = 16
		for i := 0; i < ring; i++ {
			sq.PostRecv(uint64(i), 1024)
		}
		p.Sim().Spawn("receiver", func(rp *des.Proc) {
			for {
				if cqe := sq.RecvCQ.Wait(rp); cqe == nil || cqe.Err != nil {
					return
				}
				sq.PostRecv(0, 1024)
			}
		})
		payload := make([]byte, 64)
		return func() {
			if cqe := cq.PostAndWait(p, &ibsim.SendWQE{Op: ibsim.OpSend, Payload: payload}); cqe.Err != nil {
				panic(fmt.Sprintf("layer driver: send failed: %v", cqe.Err))
			}
		}
	})
	ns("ibsim.rdma_write", 20_000, rdma(ibsim.OpWrite))
	ns("ibsim.rdma_read", 20_000, rdma(ibsim.OpRead))

	// memreg: dynamic registration of a 128 KiB buffer, and a 64 KiB
	// registration-cache hit.
	ns("memreg.reg_dereg", 20_000, func(p *des.Proc) func() {
		client, _, _, _ := pair(p)
		mgr := memreg.NewManager(p, client, memreg.Config{Mode: memreg.Regular})
		buf := client.Mem.Alloc(128 << 10)
		return func() {
			mgr.DeregisterExternal(p, mgr.RegisterExternal(p, buf, 0, 128<<10, ibsim.AccessRemoteWrite|ibsim.AccessLocalWrite))
		}
	})
	ns("memreg.cache_get_put", 100_000, func(p *des.Proc) func() {
		client, _, _, _ := pair(p)
		mgr := memreg.NewManager(p, client, memreg.Config{Mode: memreg.Cache})
		return func() { mgr.Put(p, mgr.Get(p, 64<<10, ibsim.AccessLocalWrite)) }
	})

	// Codecs: an RPC/RDMA header with a four-segment write list, and a
	// fattr3-sized XDR record.
	nsAllocs("rpcrdma.header_codec", 200_000, func(*des.Proc) func() {
		segs := make([]rpcrdma.Segment, 4)
		for i := range segs {
			segs[i] = rpcrdma.Segment{Rkey: uint32(i + 1), Length: 32 << 10, Addr: uint64(i) << 15}
		}
		h := &rpcrdma.Header{XID: 7, Credits: 32, Type: rpcrdma.MsgRDMA, WriteList: segs}
		return func() {
			if _, _, err := rpcrdma.DecodeHeader(h.Encode()); err != nil {
				panic(err)
			}
		}
	})
	nsAllocs("xdr.codec", 200_000, func(*des.Proc) func() {
		name, handle := "f017", make([]byte, 32)
		return func() {
			e := xdr.NewEncoder(nil)
			for i := 0; i < 5; i++ {
				e.Uint32(uint32(i))
				e.Uint64(uint64(i) << 33)
			}
			e.String(name)
			e.Opaque(handle)
			d := xdr.NewDecoder(e.Bytes())
			for i := 0; i < 5; i++ {
				d.Uint32()
				d.Uint64()
			}
			d.String()
			if _, err := d.Opaque(); err != nil {
				panic(err)
			}
		}
	})

	// oncrpc / nfs3: a raw call message through Dispatcher.Dispatch — NULL
	// stops at the service, GETATTR goes on to the namespace.
	nsAllocs("oncrpc.dispatch", 100_000, func(p *des.Proc) func() {
		d, _, call := dispatcher(p)
		return func() { mustDispatch(p, d, call(nfs3.ProcNull, nil)) }
	})
	nsAllocs("nfs3.getattr", 100_000, func(p *des.Proc) func() {
		d, srv, call := dispatcher(p)
		e := xdr.NewEncoder(nil)
		(&nfs3.GetAttrArgs{FH: srv.RootFH()}).Encode(e)
		return func() { mustDispatch(p, d, call(nfs3.ProcGetAttr, e.Bytes())) }
	})

	// vfs: a LOOKUP in a 32-entry directory, and a 64 KiB page-cache hit.
	ns("vfs.lookup", 200_000, func(p *des.Proc) func() {
		fs := vfs.NewNamespace(p.Sim(), vfs.NewMemStore(false), 1<<40)
		for i := 0; i < 32; i++ {
			if _, _, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%03d", i), 0644); err != nil {
				panic(err)
			}
		}
		return func() {
			if _, _, err := fs.Lookup(p, fs.Root(), "f017"); err != nil {
				panic(err)
			}
		}
	})
	ns("vfs.pagecache_read", 100_000, func(p *des.Proc) func() {
		disk := vfs.NewDiskArray(p.Sim(), "raid", profiles.LinuxDDR().Disk)
		cache := vfs.NewPageCache(disk, vfs.PageCacheConfig{CapacityBytes: 64 << 20})
		cache.Write(p, 1, 0, 64<<10)
		return func() { cache.Read(p, 1, 0, 64<<10) }
	})

	// telemetry: one sampler tick over 32 gauge probes, timer wake included.
	ns("telemetry.tick", 50_000, func(p *des.Proc) func() {
		e := telemetry.New(p.Sim(), telemetry.Options{})
		var v float64
		for i := 0; i < 32; i++ {
			e.Gauge(fmt.Sprintf("g%d", i), func() float64 { v++; return v })
		}
		e.Start(p)
		return func() { p.Sleep(e.Interval()) }
	})

	// stats, trace: the per-WQE counter slot, a histogram sample, one span
	// into the ring.
	ns("stats.counter_add", 2_000_000, func(*des.Proc) func() {
		slot := stats.NewCounters().Slot("op.send")
		return func() { slot.Add(1) }
	})
	ns("stats.hist_observe", 2_000_000, func(*des.Proc) func() {
		var h stats.Histogram
		v := 1.0
		return func() { v += 0.5; h.Observe(v) }
	})
	ns("trace.emit", 2_000_000, func(*des.Proc) func() {
		tr := trace.New(1 << 12)
		var t int64
		return func() {
			t++
			tr.Span(t, t+1, trace.LayerRPC, trace.KindRPC, "client0", "rpc", uint64(t), 0)
		}
	})
	return m
}
