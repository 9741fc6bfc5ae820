// Package tcpsim implements the NFS/TCP baseline transport the paper
// compares against (§5.3): ONC RPC with record marking over a stream whose
// costs are those of a kernel TCP stack — per-segment protocol processing,
// per-byte copies and checksumming on both sides, frame overhead on the
// wire, and an optional incast penalty for congested multi-client fan-in on
// a slow link (the GigE decline in Fig. 10(a)).
//
// Bulk payloads travel inline in the stream, which is exactly why TCP loses
// to RDMA here: every READ/WRITE byte crosses the server and client CPUs
// instead of being placed by the HCA.
package tcpsim

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/oncrpc"
)

// Config tunes a stream endpoint pair.
type Config struct {
	// MSS is the payload per segment; FrameOverhead is the extra wire bytes
	// per segment (headers, preamble, interframe gap).
	MSS           int
	FrameOverhead int

	// PerSegmentCPU is protocol processing per segment, charged at each
	// side.
	PerSegmentCPU des.Duration

	// CopiesPerByte is the per-byte CPU multiplier applied to each side
	// (copies + checksum), expressed as a count of cpu.CopyPerByte charges.
	CopiesPerByte int

	// SoftirqNsPerByte is serialized receive/transmit-path processing at
	// the server (one softirq core handles the NIC queue: no RSS on the
	// paper's hosts). It is the aggregate-throughput ceiling of the NFS/TCP
	// baseline — ~2.6 ns/B pins IPoIB near 360 MB/s no matter how many
	// clients push (§5.3).
	SoftirqNsPerByte float64

	// IncastPenalty inflates wire time by penalty*(activeConns-1) on the
	// server's inbound/outbound port — a one-parameter stand-in for
	// congestion collapse on an oversubscribed link.
	IncastPenalty float64

	// PerOpCPU is RPC-layer processing per call per side.
	PerOpCPU des.Duration

	// Workers is the server worker pool size.
	Workers int
}

// maxBulk bounds a reply payload.
const maxBulk = 1 << 20

func (c *Config) defaults() {
	if c.MSS <= 0 {
		c.MSS = 1448
	}
	if c.FrameOverhead <= 0 {
		c.FrameOverhead = 78
	}
	if c.CopiesPerByte <= 0 {
		c.CopiesPerByte = 2
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
}

// message is one record-marked RPC message on the wire.
type message struct {
	hdr  []byte // RPC bytes
	bulk *oncrpc.Bulk
	conn *Conn
}

// Listener is the server side of the stream transport.
type Listener struct {
	node       *ibsim.Node
	cfg        Config
	dispatcher *oncrpc.Dispatcher
	workQ      *des.Queue
	softirq    *des.Resource // serialized NIC-queue processing
	active     int           // connections with traffic in flight (incast input)

	Requests int64
}

// NewListener starts a server worker pool dispatching into d.
func NewListener(node *ibsim.Node, d *oncrpc.Dispatcher, cfg Config) *Listener {
	cfg.defaults()
	l := &Listener{node: node, cfg: cfg, dispatcher: d, workQ: des.NewQueue(node.Sim(), node.Name()+"/tcp-workq")}
	l.softirq = des.NewResource(node.Sim(), node.Name()+"/tcp-softirq", 1)
	for i := 0; i < cfg.Workers; i++ {
		node.Sim().Spawn(fmt.Sprintf("%s/nfsd-tcp-%d", node.Name(), i), l.worker)
	}
	return l
}

// Node returns the listener's host.
func (l *Listener) Node() *ibsim.Node { return l.node }

// Conn is a client connection. It implements oncrpc.Transport.
type Conn struct {
	client   *ibsim.Node
	listener *Listener
	cfg      Config
	pending  map[uint32]*des.Event
	inflight *des.Resource
	closed   bool
}

var _ oncrpc.Transport = (*Conn)(nil)

// Dial connects a client node to a listener.
func Dial(client *ibsim.Node, l *Listener) *Conn {
	return &Conn{
		client:   client,
		listener: l,
		cfg:      l.cfg,
		pending:  make(map[uint32]*des.Event),
		inflight: des.NewResource(client.Sim(), client.Name()+"/tcp-inflight", 64),
	}
}

// Close implements oncrpc.Transport.
func (c *Conn) Close() { c.closed = true }

// segments returns the number of MSS segments for n bytes.
func (c *Conn) segments(n int) int {
	return (n + c.cfg.MSS - 1) / c.cfg.MSS
}

// stackCPU charges one side's TCP stack cost for an n-byte message.
func stackCPU(p *des.Proc, node *ibsim.Node, cfg *Config, n int) {
	segs := (n + cfg.MSS - 1) / cfg.MSS
	if segs < 1 {
		segs = 1
	}
	node.CPU.Work(p, time.Duration(segs)*cfg.PerSegmentCPU)
	for i := 0; i < cfg.CopiesPerByte; i++ {
		node.CPU.Copy(p, n)
	}
	node.CPU.Syscall(p)
}

// stackCPUOverlapped runs stackCPU concurrently with fn (the wire): TCP
// processes segments as they stream, so stack time and serialization time
// overlap rather than add.
func stackCPUOverlapped(p *des.Proc, node *ibsim.Node, cfg *Config, n int, fn func()) {
	ev := des.NewEvent(p.Sim())
	p.Sim().Spawn(node.Name()+"/tcp-stack", func(sp *des.Proc) {
		stackCPU(sp, node, cfg, n)
		ev.Fire(nil)
	})
	fn()
	ev.Wait(p)
}

// serverSoftirq charges the serialized NIC-queue stage for n bytes.
func (l *Listener) serverSoftirq(p *des.Proc, n int) {
	if l.cfg.SoftirqNsPerByte <= 0 {
		return
	}
	l.softirq.Acquire(p, 1)
	l.node.CPU.Work(p, time.Duration(float64(n)*l.cfg.SoftirqNsPerByte))
	l.softirq.Release(1)
}

// wire serializes an n-byte message from src to dst, applying frame
// overhead and the incast penalty, and returns after the last byte leaves;
// delivery happens one latency later via the returned arrival time.
func (c *Conn) wire(p *des.Proc, src, dst *ibsim.Node, n int) des.Time {
	segs := c.segments(n)
	wireBytes := n + segs*c.cfg.FrameOverhead
	d := src.WireDuration(dst, wireBytes)
	if c.cfg.IncastPenalty > 0 && c.listener.active > 1 {
		d = time.Duration(float64(d) * (1 + c.cfg.IncastPenalty*float64(c.listener.active-1)))
	}
	src.TxPort().Acquire(p, 1)
	dst.RxPort().Acquire(p, 1)
	p.Sleep(d)
	dst.RxPort().Release(1)
	src.TxPort().Release(1)
	return p.Now() + des.Time(src.WireLatency(dst))
}

// Roundtrip implements oncrpc.Transport: record-marked call out, inline
// reply back, every payload byte through both CPUs.
func (c *Conn) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	if c.closed {
		return nil, fmt.Errorf("tcpsim: connection closed")
	}
	c.inflight.Acquire(p, 1)
	defer c.inflight.Release(1)
	c.listener.active++
	defer func() { c.listener.active-- }()

	c.client.CPU.Work(p, c.cfg.PerOpCPU)
	// Record mark + RPC header + inline bulk payload.
	sendLen := 4 + len(req.Header)
	if req.SendBulk != nil {
		sendLen += req.SendBulk.Len
	}
	var arrive des.Time
	stackCPUOverlapped(p, c.client, &c.cfg, sendLen, func() {
		arrive = c.wire(p, c.client, c.listener.node, sendLen)
	})
	if arrive < p.Now() {
		arrive = p.Now() // stack processing outlasted serialization
	}

	done := des.NewEvent(p.Sim())
	c.pending[req.XID] = done
	msg := &message{hdr: req.Header, bulk: req.SendBulk, conn: c}
	sim := p.Sim()
	sim.SpawnAt(arrive, "tcp-rx", func(rp *des.Proc) {
		c.listener.serverSoftirq(rp, sendLen)
		stackCPU(rp, c.listener.node, &c.cfg, sendLen)
		c.listener.workQ.Put(msg)
	})

	res := done.Wait(p).(*serverReply)
	delete(c.pending, req.XID)
	// Client-side receive processing of the reply.
	recvLen := 4 + len(res.hdr) + res.bulkLen
	stackCPU(p, c.client, &c.cfg, recvLen)
	n := 0
	if res.bulkLen > 0 && req.RecvBulk != nil {
		n = res.bulkLen
		if n > req.RecvBulk.Len {
			n = req.RecvBulk.Len
		}
		if req.RecvBulk.Data != nil && res.bulkData != nil {
			copy(req.RecvBulk.Data, res.bulkData[:n])
		}
	}
	return &oncrpc.Response{Header: res.hdr, BulkLen: n}, nil
}

type serverReply struct {
	hdr      []byte
	bulkLen  int
	bulkData []byte
}

func (l *Listener) worker(p *des.Proc) {
	for {
		v, ok := l.workQ.Get(p)
		if !ok {
			return
		}
		msg := v.(*message)
		l.handle(p, msg)
	}
}

func (l *Listener) handle(p *des.Proc, msg *message) {
	l.Requests++
	l.node.CPU.Work(p, l.cfg.PerOpCPU)
	reply, bulkOut, _ := l.dispatcher.Dispatch(p, msg.hdr, oncrpc.DispatchOpts{
		Bulk:        msg.bulk,
		RecvBulkCap: maxBulk,
	})
	if reply == nil {
		// Not a call (the dispatcher counts it; a denied call comes with its
		// MSG_DENIED reply), or a duplicate of a call still executing: drop
		// silently.
		return
	}
	bulkLen := 0
	var bulkData []byte
	if bulkOut != nil {
		bulkLen = bulkOut.Len
		bulkData = bulkOut.Data
	}
	replyLen := 4 + len(reply) + bulkLen
	l.serverSoftirq(p, replyLen)
	conn := msg.conn
	var arrive des.Time
	stackCPUOverlapped(p, l.node, &l.cfg, replyLen, func() {
		arrive = conn.wire(p, l.node, conn.client, replyLen)
	})
	if arrive < p.Now() {
		arrive = p.Now()
	}
	xid := binary.BigEndian.Uint32(reply) // a reply begins with its XID
	p.Sim().At(arrive, func() {
		if done, ok := conn.pending[xid]; ok && !done.Fired() {
			done.Fire(&serverReply{hdr: reply, bulkLen: bulkLen, bulkData: bulkData})
		}
	})
}
