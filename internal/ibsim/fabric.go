package ibsim

import (
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/stats"
)

// Fabric is one simulated InfiniBand subnet: a set of nodes connected
// through a non-blocking switch. Per-node port bandwidth is the only link
// capacity constraint (the switch fabric itself is never the bottleneck,
// matching a single-switch cluster like the paper's testbed).
type Fabric struct {
	Sim *des.Sim
	// CopyData selects whether file payload is materialized and copied
	// between node memories. The rule: bytes exist where a protocol reads
	// them; payload is phantom unless CopyData. Send payloads and buffers
	// from Memory.AllocMaterialized (long calls and replies, reply slots and
	// deposits, buffers an application asked to be real) always carry bytes;
	// buffers from Memory.Alloc (application I/O buffers, the transports'
	// payload staging) carry them only with CopyData, and an RDMA op with no
	// bytes on either side moves none. Simulated time and every counter are
	// keyed on lengths, never on whether bytes exist. Tests enable it to
	// verify end-to-end integrity; large experiments leave it off, and then
	// a payload byte costs the host neither memory nor time.
	CopyData bool
	Counters *stats.Counters
	// hot binds the per-WQE counters to pre-registered slots so the data
	// path never looks a name up; see hotCounters.
	hot   hotCounters
	nodes []*Node
	qpn   int
	// wqeSeq/cqeSeq hand out fabric-wide unique ids for trace pairing:
	// WRIDs are caller-chosen and reused, so they cannot key Begin/End
	// pairs on their own.
	wqeSeq uint64
	cqeSeq uint64
	// conns records every QP created by Connect in creation order, so fault
	// injection by node pair visits endpoints deterministically and keeps
	// working across reconnects (new QPs join the registry as they are made).
	conns []*QP
	// freeWQEs holds the work requests of QP.GetWQE that have completed
	// unobserved, for reuse.
	freeWQEs des.FreeList[SendWQE]
}

// NewFabric creates an empty fabric on the given simulation.
func NewFabric(sim *des.Sim, copyData bool) *Fabric {
	f := &Fabric{Sim: sim, CopyData: copyData, Counters: stats.NewCounters()}
	f.hot = newHotCounters(f.Counters)
	return f
}

// hotCounters are the fabric counters incremented on every data-path work
// request, completion or memory registration, kept as stats.Slot cells so an
// increment is an add, not a map lookup. A fabric belongs to one simulation,
// which runs on one goroutine, so the cells need no lock. Cold events (QP
// errors, protection faults, injected faults) go by name. Snapshot lists
// both alike, and never-fired names stay absent.
type hotCounters struct {
	opSend, bytesSend   *stats.Slot
	opWrite, bytesWrite *stats.Slot
	opRead, bytesRead   *stats.Slot
	wqeFlushed          *stats.Slot
	rnr                 *stats.Slot
	cqeDropped          *stats.Slot

	// Registration path: once or twice per RPC under dynamic registration.
	mrRegistered, mrDeregistered, mrRemoteExposed *stats.Slot
	fmrKeyRotations, fmrRemapReuse                *stats.Slot
}

func newHotCounters(c *stats.Counters) hotCounters {
	return hotCounters{
		opSend:     c.Slot("op.send"),
		bytesSend:  c.Slot("bytes.send"),
		opWrite:    c.Slot("op.write"),
		bytesWrite: c.Slot("bytes.write"),
		opRead:     c.Slot("op.read"),
		bytesRead:  c.Slot("bytes.read"),
		wqeFlushed: c.Slot("wqe.flushed"),
		rnr:        c.Slot("rnr"),
		cqeDropped: c.Slot("cqe.dropped"),

		mrRegistered:    c.Slot("mr.registered"),
		mrDeregistered:  c.Slot("mr.deregistered"),
		mrRemoteExposed: c.Slot("mr.remote_exposed"),
		fmrKeyRotations: c.Slot("fmr.key_rotations"),
		fmrRemapReuse:   c.Slot("fmr.remap_reuse"),
	}
}

// NodeConfig sizes one host and its HCA.
type NodeConfig struct {
	Name  string
	Cores int // CPU cores

	// HCA port characteristics.
	PortBandwidth float64      // bytes/second each direction (full duplex)
	PortLatency   des.Duration // one-way wire+switch latency

	// MaxORD bounds the outstanding RDMA Reads a local QP may have in
	// flight (and, symmetrically, the IRD it advertises). The Mellanox
	// HCAs of the paper's era allow at most 8.
	MaxORD int

	// WQEOverhead is HCA processing time to launch one work request.
	WQEOverhead des.Duration

	// ReadResponseOverhead is channel turnaround per RDMA Read served by
	// this node as responder: request decode, DMA setup and response
	// scheduling occupy the transmit port beyond pure serialization. It is
	// why splitting one transfer into many small Reads (the all-physical
	// fragmentation of §5.2) costs real bandwidth and presses the IRD/ORD
	// limit.
	ReadResponseOverhead des.Duration

	// Registration cost model. TPT updates are transactions across the I/O
	// bus serviced by a single TPT engine on the HCA, so the *Bus costs
	// serialize across all registrations on the node — this is why dynamic
	// registration throughput is bounded by PageSize / per-page-bus-cost
	// regardless of record size (the flat saturation of Fig. 5), and why
	// §4.3 stresses that HCA response time grows with load.
	RegPerPageCPU    des.Duration // pin + translate, charged to host CPU, per page
	RegBase          des.Duration // per-registration TPT transaction overhead (serial)
	RegPerPageBus    des.Duration // per-page TPT entry install (serial)
	DeregPerPageCPU  des.Duration // unpin per page (host CPU)
	DeregBase        des.Duration // TPT invalidate transaction overhead (serial)
	DeregPerPageBus  des.Duration // per-page TPT entry invalidate (serial)
	FMRMapCPU        des.Duration // FMR map pin/translate per page (host CPU)
	FMRMapPerPageBus des.Duration // FMR map TPT write per page (serial, cheaper)

	// CPU cost parameters (see package cpu). CopyNsPerByte is in
	// nanoseconds per byte (fractional values allowed). MigrationCost is the
	// penalty for completing work on one CPU and resuming the waiting thread
	// on another (completion-to-CPU affinity; zero disables the model).
	CopyNsPerByte float64
	InterruptCost des.Duration
	SyscallCost   des.Duration
	MigrationCost des.Duration

	// MeanPhysRun overrides the memory physical-contiguity model when > 0.
	MeanPhysRun int

	// SequentialRkeys switches steering-tag allocation from the default
	// randomized draw to a sequential counter, modelling mlx4-era drivers
	// that handed out monotonically increasing keys. Sequential tags make
	// rkey guessing trivial — an attacker scans upward from 1 — which is
	// exactly what the adversary experiments measure against the default.
	SequentialRkeys bool

	// FMRKeyRotate allocates a fresh steering tag on every FMR re-map
	// instead of reusing the handle's pool-time tag. Reuse is what opens
	// the FMR remap window: a peer holding a pre-remap rkey silently
	// addresses whatever the handle maps next. Rotation closes the window
	// at the cost of one tag allocation per remap.
	FMRKeyRotate bool

	Seed uint64
}

// Node is one simulated host: CPU complex, memory, and an HCA.
type Node struct {
	fab  *Fabric
	name string
	cfg  NodeConfig

	CPU *cpu.Model
	Mem *Memory
	HCA *HCA

	txPort *des.Resource
	rxPort *des.Resource
}

// AddNode creates a host on the fabric.
func (f *Fabric) AddNode(cfg NodeConfig) *Node {
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	if cfg.PortBandwidth <= 0 {
		cfg.PortBandwidth = 900e6 // SDR x8 PCIe practical unidirectional
	}
	if cfg.PortLatency <= 0 {
		cfg.PortLatency = 3 * time.Microsecond
	}
	if cfg.MaxORD <= 0 {
		cfg.MaxORD = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(len(f.nodes) + 1)
	}
	n := &Node{
		fab:    f,
		name:   cfg.Name,
		cfg:    cfg,
		txPort: des.NewResource(f.Sim, cfg.Name+"/tx", 1),
		rxPort: des.NewResource(f.Sim, cfg.Name+"/rx", 1),
	}
	n.CPU = cpu.New(f.Sim, cfg.Name, cfg.Cores)
	n.CPU.CopyNsPerByte = cfg.CopyNsPerByte
	n.CPU.InterruptCost = cfg.InterruptCost
	n.CPU.SyscallCost = cfg.SyscallCost
	n.CPU.MigrationCost = cfg.MigrationCost
	n.Mem = newMemory(n, cfg.Seed*0x9E37+1)
	if cfg.MeanPhysRun > 0 {
		n.Mem.MeanPhysRun = cfg.MeanPhysRun
	}
	n.HCA = newHCA(n, cfg)
	f.nodes = append(f.nodes, n)
	return n
}

// Name returns the node's configured name.
func (n *Node) Name() string { return n.name }

// Config returns the node configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// Sim returns the owning simulation.
func (n *Node) Sim() *des.Sim { return n.fab.Sim }

// Fabric returns the owning fabric.
func (n *Node) Fabric() *Fabric { return n.fab }

// transferDuration computes wire occupancy for size bytes between two nodes:
// the stream is clocked at the slower of the two port rates.
func transferDuration(size int, from, to *Node) des.Duration {
	bw := from.cfg.PortBandwidth
	if to.cfg.PortBandwidth < bw {
		bw = to.cfg.PortBandwidth
	}
	return des.Duration(float64(size) / bw * 1e9)
}

// latency returns the one-way delivery latency between two nodes (the max
// of the two port latencies: dominated by the slower NIC).
func latency(from, to *Node) des.Duration {
	l := from.cfg.PortLatency
	if to.cfg.PortLatency > l {
		l = to.cfg.PortLatency
	}
	return l
}

// TxPort exposes the transmit-side port resource for transports (e.g. the
// NFS/TCP baseline) that serialize their own wire occupancy.
func (n *Node) TxPort() *des.Resource { return n.txPort }

// RxPort exposes the receive-side port resource.
func (n *Node) RxPort() *des.Resource { return n.rxPort }

// WireDuration returns the serialization time of size bytes toward peer
// (clocked at the slower port).
func (n *Node) WireDuration(peer *Node, size int) des.Duration {
	return transferDuration(size, n, peer)
}

// WireLatency returns the one-way delivery latency toward peer.
func (n *Node) WireLatency(peer *Node) des.Duration { return latency(n, peer) }

func (f *Fabric) nextQPN() int {
	f.qpn++
	return f.qpn
}

// Connect establishes a reliable connection between two nodes and returns
// the two queue-pair endpoints. ORD on each side is clamped to the peer's
// advertised inbound depth (IRD), as the CM negotiation does on real
// hardware.
func (f *Fabric) Connect(a, b *Node, cfg QPConfig) (*QP, *QP) {
	qa := newQP(a, cfg, f.nextQPN())
	qb := newQP(b, cfg, f.nextQPN())
	qa.peer, qb.peer = qb, qa
	ordA := min(a.cfg.MaxORD, b.cfg.MaxORD)
	ordB := ordA
	qa.ord = des.NewResource(f.Sim, fmt.Sprintf("%s/qp%d/ord", a.name, qa.qpn), ordA)
	qb.ord = des.NewResource(f.Sim, fmt.Sprintf("%s/qp%d/ord", b.name, qb.qpn), ordB)
	qa.start()
	qb.start()
	f.conns = append(f.conns, qa, qb)
	return qa, qb
}

// ScheduleQPError arms a fault: at virtual time at, the given QP (and, via
// error propagation, its peer) transitions to the error state. In-flight
// WQEs flush with errors wrapping ErrInjected and both CQs of both
// endpoints observe the death. Injecting into an endpoint that already died
// or was closed is a no-op, so schedules laid out in advance stay safe
// across reconnects.
func (f *Fabric) ScheduleQPError(at des.Time, q *QP, err error) {
	f.Sim.At(at, func() {
		if q.closed || q.errSt != nil {
			return
		}
		q.InjectError(err)
	})
}

// ScheduleLinkFlap arms a fault: at virtual time at, every live connection
// between nodes a and b is killed, as a port bounce on either host would do.
// Connections established after the flap (e.g. by recovery reconnecting) are
// untouched, so a schedule of flaps at increasing times tests repeated
// failure/recovery cycles. Endpoints are visited in creation order for
// determinism.
func (f *Fabric) ScheduleLinkFlap(at des.Time, a, b *Node) {
	f.Sim.At(at, func() {
		f.Counters.Inc("fault.flap")
		for _, q := range f.conns {
			if q.closed || q.errSt != nil || q.peer == nil {
				continue
			}
			if (q.node == a && q.peer.node == b) || (q.node == b && q.peer.node == a) {
				q.InjectError(fmt.Errorf("%w: link flap %s<->%s", ErrInjected, a.name, b.name))
			}
		}
	})
}
