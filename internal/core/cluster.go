// Package core assembles the paper's system: an NFSv3 server exporting a
// tmpfs or RAID-backed file system over the RPC/RDMA transport (Read-Write
// or Read-Read design, any §4.3 registration strategy) or over the NFS/TCP
// baseline, plus clients with a file API that includes the zero-copy
// direct-I/O read path. A Cluster is one experiment instance: simulated
// hosts on one fabric, fully wired, ready for workloads.
package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Transport selects the wire protocol of a cluster.
type Transport int

// Transports. The TCP baselines differ in the NIC they run over: IPoIB uses
// the InfiniBand port, GigE a 125 MB/s Ethernet port.
const (
	TransportRDMA Transport = iota
	TransportIPoIB
	TransportGigE
)

func (t Transport) String() string {
	switch t {
	case TransportRDMA:
		return "rdma"
	case TransportIPoIB:
		return "ipoib"
	case TransportGigE:
		return "gige"
	}
	return fmt.Sprintf("transport(%d)", int(t))
}

// ParseTransport is the inverse of Transport.String.
func ParseTransport(name string) (Transport, error) {
	for t := TransportRDMA; t <= TransportGigE; t++ {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown transport %q", name)
}

// Backend selects the server's file store.
type Backend int

// Backends: memory-speed tmpfs (§5.1/§5.2) or the page-cached RAID-0 array
// (§5.3).
const (
	BackendTmpfs Backend = iota
	BackendDisk
)

func (b Backend) String() string {
	if b == BackendDisk {
		return "disk"
	}
	return "tmpfs"
}

// Config describes one cluster/experiment instance.
type Config struct {
	Profile   profiles.Profile
	Transport Transport
	Design    rpcrdma.Design
	RegMode   memreg.Mode
	Clients   int
	Backend   Backend

	// PageCacheBytes overrides the profile's server page-cache capacity
	// (disk backend only).
	PageCacheBytes int64

	// CopyData materializes and moves real payload bytes (integrity tests);
	// large experiments leave it off: payload is then phantom end to end —
	// application buffers, transport staging, the store — while protocol
	// bytes stay real (see ibsim.Fabric.CopyData).
	CopyData bool

	// CacheMaxBytes bounds the registration-cache slab on both endpoints
	// (RegMode Cache only; 0 = the memreg default).
	CacheMaxBytes int64

	// DRCEntries bounds the server's per-client duplicate request cache.
	// 0 selects the default (256 entries per client machine); negative
	// disables the cache entirely, making retransmitted non-idempotent
	// calls re-execute (for ablation only).
	DRCEntries int

	// ServerShards enables the server transport's sharded dispatch path:
	// connections hash across this many shards, each owning a shared
	// receive queue (SRQ), a completion-polling loop, and a slice of the
	// worker pool. Zero keeps the per-connection receive path. Required in
	// practice beyond a few tens of clients — per-connection receive rings
	// scale memory and polling linearly with connection count.
	ServerShards int

	// MaxConns caps live server connections (admission control). Dialing
	// clients beyond the cap are rejected and retry with exponential
	// backoff until a slot frees. Zero means unlimited.
	MaxConns int

	// Multiplex shares one server-side QP per dispatch shard across all
	// clients (DCT-style endpoints demultiplexed by stream id), making
	// server connection cost O(shards) instead of O(connections). Implies
	// sharded dispatch (ServerShards, default 8). RDMA transport only.
	Multiplex bool

	// Affinity pins each shard's reply processing to its completion CPU
	// (see rpcrdma.Config.Affinity). Sharded dispatch only.
	Affinity bool

	// SRQDepth overrides the per-shard shared receive queue depth. The
	// capacity sweep uses it to provision per-connection mode honestly
	// (receive buffers for every client's full credit window) while
	// multiplexed mode keeps the fixed default.
	SRQDepth int

	// Recovery, when set, installs transparent reconnect-and-replay on every
	// RDMA client before its MOUNT, so set-up traffic is replayed like any
	// other call (see RetryPolicy). Nil leaves transport errors to the
	// caller.
	Recovery *RetryPolicy

	// Security is the posture of every node and of the server transport
	// (see Security). The adversary engine is the only caller that moves it
	// off the default.
	Security Security

	Seed uint64
}

// Security is a cluster-wide security posture: one value standing for the
// five protocol and HCA settings the adversary engine measures, which only
// ever move together.
type Security int

const (
	// SecurityDefault is the zero value, what every experiment but the
	// adversary's runs: steering tags drawn at random, stream claims on a
	// shared QP checked against the fabric-stamped source, the DRC keyed by
	// the transport-authenticated peer — but FMR tags kept across remaps and
	// no misbehavior quarantine, so it is not the fully hardened posture.
	SecurityDefault Security = iota
	// SecurityVulnerable re-opens the pre-hardening holes so attacks can be
	// measured: sequential (trivially guessable) steering tags, trusted
	// stream claims, a DRC keyed by the forgeable AUTH_SYS machine name.
	SecurityVulnerable
	// SecurityHardened is the default plus a fresh FMR tag on every remap
	// and quarantine of endpoints whose misbehavior score reaches
	// quarantineThreshold.
	SecurityHardened
)

// fsCapacity is the advertised export size.
const fsCapacity = 1 << 44

// quarantineThreshold is the hardened posture's misbehavior budget: low
// enough that a spoof burst dies quickly, high enough that a stray decode
// glitch never kills an honest client.
const quarantineThreshold = 8

// Node returns nc with the posture's HCA policy applied. Hosts that join the
// fabric outside NewCluster (the adversary's) use it to stay uniform with
// the cluster's own nodes.
func (s Security) Node(nc ibsim.NodeConfig) ibsim.NodeConfig {
	nc.SequentialRkeys = s == SecurityVulnerable
	nc.FMRKeyRotate = s == SecurityHardened
	return nc
}

// transport applies the posture to the server transport's configuration.
func (s Security) transport(c *rpcrdma.Config) {
	c.TrustStreamClaims = s == SecurityVulnerable
	c.TrustCredDRC = s == SecurityVulnerable
	if s == SecurityHardened {
		c.QuarantineThreshold = quarantineThreshold
	}
}

func (c *Config) defaults() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.PageCacheBytes <= 0 {
		c.PageCacheBytes = c.Profile.PageCacheBytes
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Server is the simulated NFS server host.
type Server struct {
	Node  *ibsim.Node
	FS    *vfs.Namespace
	NFS   *nfs3.Server
	Mount *nfs3.MountServer
	Mgr   *memreg.Manager

	RDMA       *rpcrdma.ServerTransport
	TCP        *tcpsim.Listener
	Dispatcher *oncrpc.Dispatcher

	Disk  *vfs.DiskArray
	Cache *vfs.PageCache
}

// Cluster is one fully wired experiment instance.
type Cluster struct {
	Cfg     Config
	Sim     *des.Sim
	Fabric  *ibsim.Fabric
	Server  *Server
	Clients []*Client

	// Crashes counts server crash/restart cycles driven through CrashServer
	// (see crash.go).
	Crashes int64

	ready *des.Event

	// serverRDMACfg is the resolved server transport configuration, kept so
	// RestartServer can rebuild an identical transport after a crash.
	serverRDMACfg rpcrdma.Config
	serverDown    bool

	// tel is the telemetry engine attached by EnableTelemetry (nil — the
	// disabled engine — otherwise; see telemetry.go).
	tel *telemetry.Engine

	// Totals are the cluster-wide sums the telemetry probes and the chaos
	// and adversary reports read. Each is bumped by the statement that bumps
	// the per-client value it sums, so reading one never walks Clients.
	Totals Totals
}

// Totals are sums over a cluster's clients, maintained where the summed
// values change: the client transports' credit gates and call loops
// (RDMA), the recovery layer, and the attribute and data caches.
type Totals struct {
	// RDMA sums the credits of the transports installed in Clients[i].RDMA
	// (a transport replaced by Reconnect leaves at the swap) and, in
	// Timeouts, the timeouts of every transport a client has used.
	RDMA rpcrdma.ClientTotals

	Reconnects, Replays  int64 // recovery layer, all clients
	AttrHits, AttrMisses int64 // attribute plus lookup cache
	DataHits, DataMisses int64 // client data cache
}

// NewCluster builds the hosts and schedules the wiring (managers and
// transports are created inside the simulation, since FMR pools and
// connections take simulated time). Workloads started with Start run after
// wiring completes.
func NewCluster(cfg Config) *Cluster {
	cfg.defaults()
	sim := des.New()
	fab := ibsim.NewFabric(sim, cfg.CopyData)
	c := &Cluster{Cfg: cfg, Sim: sim, Fabric: fab, ready: des.NewEvent(sim)}

	serverNodeCfg := cfg.Security.Node(cfg.Profile.Server)
	clientNodeCfg := cfg.Security.Node(cfg.Profile.Client)
	if cfg.Transport == TransportGigE {
		serverNodeCfg.PortBandwidth = profiles.GigEPortBandwidth
		serverNodeCfg.PortLatency = profiles.GigEPortLatency
		clientNodeCfg.PortBandwidth = profiles.GigEPortBandwidth
		clientNodeCfg.PortLatency = profiles.GigEPortLatency
	}
	serverNodeCfg.Name = "server"
	serverNodeCfg.Seed = cfg.Seed * 31
	srvNode := fab.AddNode(serverNodeCfg)

	srv := &Server{Node: srvNode}
	var store vfs.Store
	switch cfg.Backend {
	case BackendTmpfs:
		store = vfs.NewMemStore(cfg.CopyData)
	case BackendDisk:
		srv.Disk = vfs.NewDiskArray(sim, "server-raid", cfg.Profile.Disk)
		srv.Cache = vfs.NewPageCache(srv.Disk, vfs.PageCacheConfig{
			CapacityBytes: cfg.PageCacheBytes,
		})
		store = vfs.NewDiskStore(srv.Cache)
	}
	srv.FS = vfs.NewNamespace(sim, store, fsCapacity)
	srv.NFS = nfs3.NewServer(srv.FS, nfs3.ServerConfig{
		CPU:      srvNode.CPU,
		PerOpCPU: cfg.Profile.NFSPerOpCPU,
	})
	srv.Mount = nfs3.NewMountServer(srv.NFS)
	c.Server = srv

	dispatcher := oncrpc.NewDispatcher()
	dispatcher.Register(srv.NFS)
	dispatcher.Register(srv.Mount)
	srv.Dispatcher = dispatcher
	if cfg.DRCEntries >= 0 {
		entries := cfg.DRCEntries
		if entries == 0 {
			entries = 256
		}
		dispatcher.EnableDRC(entries)
	}

	for i := 0; i < cfg.Clients; i++ {
		nodeCfg := clientNodeCfg
		nodeCfg.Name = fmt.Sprintf("client%d", i)
		nodeCfg.Seed = cfg.Seed*101 + uint64(i)
		c.Clients = append(c.Clients, &Client{
			cluster: c,
			Index:   i,
			Node:    fab.AddNode(nodeCfg),
		})
	}

	sim.Spawn("cluster-setup", func(p *des.Proc) {
		srv.Mgr = memreg.NewManager(p, srvNode, memreg.Config{Mode: cfg.RegMode, CacheMaxBytes: cfg.CacheMaxBytes})
		switch cfg.Transport {
		case TransportRDMA:
			sCfg := cfg.Profile.RDMAServer
			sCfg.Design = cfg.Design
			sCfg.Shards = cfg.ServerShards
			sCfg.MaxConns = cfg.MaxConns
			sCfg.Multiplex = cfg.Multiplex
			sCfg.Affinity = cfg.Affinity
			cfg.Security.transport(&sCfg)
			if cfg.SRQDepth > 0 {
				sCfg.SRQDepth = cfg.SRQDepth
			}
			c.serverRDMACfg = sCfg
			srv.RDMA = rpcrdma.NewServerTransport(srvNode, srv.Mgr, dispatcher, sCfg)
			for _, cl := range c.Clients {
				cl.Mgr = memreg.NewManager(p, cl.Node, memreg.Config{Mode: cfg.RegMode, CacheMaxBytes: cfg.CacheMaxBytes})
				t, err := c.ConnectRDMA(p, cl.Node, cl.Mgr)
				if err != nil {
					panic(err.Error())
				}
				cl.install(t)
				cl.Transport = cl.RDMA
				if cfg.Recovery != nil {
					cl.recovery = &recoveringTransport{cl: cl, policy: cfg.Recovery.withDefaults()}
					cl.Transport = cl.recovery
				}
			}
		case TransportIPoIB, TransportGigE:
			tcpCfg := cfg.Profile.TCP
			if cfg.Transport == TransportGigE {
				tcpCfg = profiles.GigETCP()
			}
			srv.TCP = tcpsim.NewListener(srvNode, dispatcher, tcpCfg)
			for _, cl := range c.Clients {
				cl.Mgr = memreg.NewManager(p, cl.Node, memreg.Config{Mode: cfg.RegMode, CacheMaxBytes: cfg.CacheMaxBytes})
				cl.Transport = tcpsim.Dial(cl.Node, srv.TCP)
			}
		}
		for _, cl := range c.Clients {
			cl.NFS = nfs3.NewClient(cl.Transport, cl.Node.Name())
			cl.NFS.AttachSim(sim)
			// Bootstrap through the MOUNT protocol, as a real client would.
			mc := nfs3.NewMountClient(cl.Transport, cl.Node.Name())
			root, err := mc.Mount(p, "/")
			if err != nil {
				panic(fmt.Sprintf("core: mount failed for %s: %v", cl.Node.Name(), err))
			}
			cl.Root = root
		}
		c.ready.Fire(nil)
	})
	return c
}

// ConnectRDMA dials the server from node and builds a client transport
// over mgr with the cluster's design, honouring admission control: a
// rejected connection is closed and redialled with exponential backoff
// until the server has room. Initial wiring, Reconnect and the adversary's
// attacker all dial through it, in both connection modes — a dedicated QP
// pair per client, or (Multiplex) a lightweight endpoint attached to a
// shard's shared QP, sized to the server's initial credit grant (its
// sub-account of the shard's pooled receives). The retry budget is finite;
// a nil transport and an error mean every attempt was rejected — because
// MaxConns starves this node, or because the server is down (crashed) for
// longer than the whole dial window. Initial wiring treats that as fatal;
// the recovery layer keeps redialling.
func (c *Cluster) ConnectRDMA(p *des.Proc, node *ibsim.Node, mgr *memreg.Manager) (*rpcrdma.ClientTransport, error) {
	// One admission attempt; both modes share the surrounding backoff loop
	// so redial policy cannot drift between them.
	dial := func() (*ibsim.QP, int, bool) {
		if c.Cfg.Multiplex {
			return c.Server.RDMA.TryAttach(node)
		}
		cq, sq := c.Fabric.Connect(node, c.Server.Node, ibsim.QPConfig{})
		if !c.Server.RDMA.TryServe(sq) {
			cq.Close()
			return nil, 0, false
		}
		return cq, 0, true
	}
	backoff := admissionBackoffBase
	for attempt := 0; ; attempt++ {
		if cq, grant, ok := dial(); ok {
			cfg := c.Cfg.Profile.RDMAClient
			cfg.Design = c.Cfg.Design
			if c.Cfg.Multiplex {
				cfg.Multiplex = true
				if grant > 0 && grant < cfg.Credits {
					cfg.Credits = grant
				}
			}
			return rpcrdma.NewClientTransport(cq, mgr, cfg), nil
		}
		if attempt >= admissionRetryLimit {
			return nil, fmt.Errorf("core: %s rejected by server %d times (MaxConns=%d too small for %d clients, or server down?)",
				node.Name(), attempt+1, c.Cfg.MaxConns, c.Cfg.Clients)
		}
		p.Sleep(backoff)
		backoff *= 2
	}
}

// Admission-control redial policy.
const (
	admissionBackoffBase des.Duration = 50_000 // 50µs, doubling per attempt
	admissionRetryLimit               = 12
)

// EnableTracing installs a structured tracer on the cluster's simulation
// and returns it. Call before Run; capacity <= 0 selects the default ring
// size. Every layer — kernel, fabric, transport, RPC, NFS, core — starts
// emitting into it immediately.
func (c *Cluster) EnableTracing(capacity int) *trace.Tracer {
	tr := trace.New(capacity)
	c.Sim.SetTracer(tr)
	return tr
}

// Start spawns a workload process that begins once the cluster is wired.
func (c *Cluster) Start(name string, fn func(p *des.Proc)) {
	c.Sim.Spawn(name, func(p *des.Proc) {
		c.ready.Wait(p)
		fn(p)
	})
}

// Run drives the simulation to completion and returns the final virtual
// time.
func (c *Cluster) Run() des.Time { return c.Sim.Run() }

// RunUntil bounds a runaway simulation.
func (c *Cluster) RunUntil(limit des.Time) des.Time { return c.Sim.RunUntil(limit) }
