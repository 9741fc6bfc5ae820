package ibsim

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/trace"
)

// Access is the permission set of a memory region.
type Access uint8

// Access flags. LocalWrite allows the HCA to place received/read data into
// the region; RemoteRead / RemoteWrite expose it to the peer's memory
// primitives — exposure is precisely what the paper's security analysis is
// about, so fabric counters track remotely accessible registrations.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
)

func (a Access) String() string {
	s := ""
	if a&AccessLocalWrite != 0 {
		s += "L"
	}
	if a&AccessRemoteRead != 0 {
		s += "R"
	}
	if a&AccessRemoteWrite != 0 {
		s += "W"
	}
	if s == "" {
		return "-"
	}
	return s
}

// MR is a registered memory region: a TPT entry binding a steering tag to a
// virtual address range with access permissions.
type MR struct {
	hca    *HCA
	buf    *Buffer
	bufOff int
	start  uint64 // virtual start address
	length int
	rkey   uint32
	access Access
	valid  bool
	fmr    bool // registered through the FMR path
	global bool // the all-physical global steering tag
}

// Rkey returns the region's steering tag.
func (m *MR) Rkey() uint32 { return m.rkey }

// Start returns the region's starting virtual address.
func (m *MR) Start() uint64 { return m.start }

// Length returns the registered length in bytes.
func (m *MR) Length() int { return m.length }

// Access returns the permission set.
func (m *MR) Access() Access { return m.access }

// Valid reports whether the TPT entry is still installed.
func (m *MR) Valid() bool { return m.valid }

// Buffer returns the underlying buffer (nil for the global region).
func (m *MR) Buffer() *Buffer { return m.buf }

// HCA is the host channel adapter: it owns the TPT and provides the
// cost-modelled registration primitives out of which the package memreg
// strategies are composed.
type HCA struct {
	node *Node
	cfg  NodeConfig
	tpt  map[uint32]*MR
	rng  *des.Rand

	// tptEngine serializes TPT update transactions: one engine per HCA, so
	// concurrent registrations queue — registration throughput is a node
	// property, not a per-thread one.
	tptEngine *des.Resource

	globalMR *MR

	// tagSeq is the last steering tag handed out in sequential-allocation
	// mode (NodeConfig.SequentialRkeys); unused under randomized draws.
	tagSeq uint32

	// watches are write-watch doorbells (see watch.go): per rkey, the
	// first of the watches armed on it, linked in arming order. Nil until
	// the first WatchWrite, so non-RFP runs pay one nil check per delivered
	// Write.
	watches map[uint32]*WriteWatch

	// ops holds the step states of the process forms (Register, ...) between
	// calls.
	ops des.FreeList[RegOp]

	// Exposure accounting for the security evaluation.
	remoteExposedBytes int64
	remoteExposedEver  int64 // cumulative count of remotely accessible MRs
}

func newHCA(n *Node, cfg NodeConfig) *HCA {
	return &HCA{
		node:      n,
		cfg:       cfg,
		tpt:       make(map[uint32]*MR),
		rng:       des.NewRand(cfg.Seed*0x51ED + 7),
		tptEngine: des.NewResource(n.fab.Sim, cfg.Name+"/tpt-engine", 1),
	}
}

// busTxn occupies the TPT engine for d.
func (h *HCA) busTxn(p *des.Proc, d des.Duration) {
	if d <= 0 {
		return
	}
	h.tptEngine.Use(p, 1, d)
}

// busThen is busTxn for a chain: it occupies the TPT engine for d, then calls
// next(op).
func (h *HCA) busThen(op *RegOp, d des.Duration, next func(any)) {
	if d <= 0 {
		next(op)
		return
	}
	h.tptEngine.UseThen(&op.hold, d, next, op)
}

// TPTEngineUtilization reports how loaded the registration path is.
func (h *HCA) TPTEngineUtilization(since des.Time) float64 {
	return h.tptEngine.Utilization(since)
}

// TPTEngineBusySeconds returns the cumulative time the TPT engine has been
// occupied; the difference of two readings is exact for any window.
func (h *HCA) TPTEngineBusySeconds() float64 { return h.tptEngine.BusySeconds() }

// Node returns the owning node.
func (h *HCA) Node() *Node { return h.node }

func (h *HCA) pages(length int) int {
	return (length + pageSize - 1) / pageSize
}

func (h *HCA) allocTag() uint32 {
	if h.cfg.SequentialRkeys {
		// Sequential tags, as mlx4-era drivers allocated them: the next
		// key is always last+1, so a malicious peer scanning upward from 1
		// hits every live registration. Kept as an opt-in policy precisely
		// so the adversary experiments can measure how bad it is.
		for {
			h.tagSeq++
			if h.tagSeq == 0 {
				h.tagSeq = 1
			}
			if _, exists := h.tpt[h.tagSeq]; !exists {
				return h.tagSeq
			}
		}
	}
	for {
		// 32-bit steering tags, as in the paper's security discussion: large
		// enough that guessing is improbable per attempt, small enough that a
		// patient malicious client can scan the space.
		k := h.rng.Uint32()
		if k == 0 {
			continue
		}
		if _, exists := h.tpt[k]; !exists {
			return k
		}
	}
}

func (h *HCA) install(mr *MR) {
	h.tpt[mr.rkey] = mr
	mr.valid = true
	if mr.access&(AccessRemoteRead|AccessRemoteWrite) != 0 {
		h.remoteExposedBytes += int64(mr.length)
		h.remoteExposedEver++
		h.node.fab.hot.mrRemoteExposed.Inc()
	}
	h.node.fab.hot.mrRegistered.Inc()
	if tr := h.node.fab.Sim.Tracer(); tr != nil {
		tr.Begin(int64(h.node.fab.Sim.Now()), trace.LayerIbsim, trace.KindMR, h.node.name, "mr",
			uint64(mr.rkey), trace.MRArg(uint8(mr.access), mr.length))
	}
}

func (h *HCA) remove(mr *MR) {
	if !mr.valid {
		panic("ibsim: deregistering invalid MR")
	}
	delete(h.tpt, mr.rkey)
	mr.valid = false
	if mr.access&(AccessRemoteRead|AccessRemoteWrite) != 0 {
		h.remoteExposedBytes -= int64(mr.length)
	}
	h.node.fab.hot.mrDeregistered.Inc()
	if tr := h.node.fab.Sim.Tracer(); tr != nil {
		tr.End(int64(h.node.fab.Sim.Now()), trace.LayerIbsim, trace.KindMR, h.node.name, "mr",
			uint64(mr.rkey), 0)
	}
}

// RemoteExposedBytes returns the number of bytes currently registered with
// remote read or write access — the server's attack surface in the
// Read-Read design.
func (h *HCA) RemoteExposedBytes() int64 { return h.remoteExposedBytes }

// RemoteExposedEver returns the cumulative count of remotely accessible
// registrations this HCA ever installed. A Read-Write NFS server keeps this
// at zero for its lifetime.
func (h *HCA) RemoteExposedEver() int64 { return h.remoteExposedEver }

// RegOp is the state of one registration step in flight — RegisterThen,
// DeregisterThen, FMRHandle.MapThen or UnmapThen — kept in storage its caller
// owns and reuses, so that a step allocates nothing of its own: only an FMR
// mapping and a registration given no MR storage allocate the MR they install.
// A step is a chain of callbacks: it waits for the host CPU and the TPT
// engine, at the instants and in the places a process would.
type RegOp struct {
	h      *HCA
	f      *FMRHandle
	buf    *Buffer
	off    int
	length int
	access Access
	mr     *MR
	start  des.Time
	hold   des.Hold
	fn     func(any)
	arg    any
}

// MR returns the region the step registered or mapped.
func (op *RegOp) MR() *MR { return op.mr }

// begin readies op for a step of h ending in fn(arg). Its fields are set
// one by one: a step is on the path of every registering RPC, and a
// whole-struct assignment copies its hold too.
func (op *RegOp) begin(h *HCA, fmr *FMRHandle, buf *Buffer, off, length int, access Access, mr *MR, fn func(any), arg any) {
	op.h, op.f, op.buf, op.off, op.length, op.access, op.mr = h, fmr, buf, off, length, access, mr
	op.start, op.fn, op.arg = h.node.fab.Sim.Now(), fn, arg
}

// finish ends the step: fn(arg), with the op left holding only its MR.
func (op *RegOp) finish() {
	fn, arg := op.fn, op.arg
	op.fn, op.arg, op.buf = nil, nil, nil
	fn(arg)
}

// await runs a step on p: the process forms of the steps are this around
// their chains.
func (h *HCA) await(p *des.Proc, start func(op *RegOp)) *MR {
	op := h.ops.Get()
	start(op)
	p.Suspend()
	mr := op.mr
	*op = RegOp{}
	h.ops.Put(op)
	return mr
}

// Register performs a full dynamic registration: pin and translate each
// page (host CPU), then one I/O-bus transaction to install the TPT entry
// (the caller waits for the HCA response). This is the paper's "regular
// registration" whose critical-path cost motivates §4.3.
func (h *HCA) Register(p *des.Proc, buf *Buffer, off, length int, access Access) *MR {
	return h.await(p, func(op *RegOp) { h.RegisterThen(op, nil, buf, off, length, access, des.Resumer, p) })
}

// RegisterThen is Register for a chain: fn(arg) runs once the region is
// installed, and op.MR() is the region. The region is installed into mr, a
// zero MR the caller owns, so that it can live inside the object that owns
// the registration and be allocated with it; nil makes a new one. MR storage
// serves one registration: a deregistered MR keeps its fields and stays
// invalid for good, since a stale rkey or an RDMA Read in flight may still
// hold it.
func (h *HCA) RegisterThen(op *RegOp, mr *MR, buf *Buffer, off, length int, access Access, fn func(any), arg any) {
	if off < 0 || length <= 0 || off+length > buf.Size {
		panic(fmt.Sprintf("ibsim: register [%d,%d) outside buffer size %d", off, off+length, buf.Size))
	}
	if mr == nil {
		mr = new(MR)
	} else if *mr != (MR{}) {
		panic("ibsim: register into an MR already used")
	}
	op.begin(h, nil, buf, off, length, access, mr, fn, arg)
	h.node.CPU.WorkThen(&op.hold, des.Duration(h.pages(length))*h.cfg.RegPerPageCPU, regPinned, op)
}

func regPinned(a any) {
	op := a.(*RegOp)
	h := op.h
	h.busThen(op, h.cfg.RegBase+des.Duration(h.pages(op.length))*h.cfg.RegPerPageBus, regInstalled)
}

func regInstalled(a any) {
	op := a.(*RegOp)
	h, mr := op.h, op.mr
	*mr = MR{
		hca: h, buf: op.buf, bufOff: op.off,
		start: op.buf.Addr(op.off), length: op.length,
		rkey: h.allocTag(), access: op.access,
	}
	h.install(mr)
	h.traceReg(op, mr, "register", "reg.register")
	op.finish()
}

// traceReg records a registration step's span and latency.
func (h *HCA) traceReg(op *RegOp, mr *MR, name, hist string) {
	if tr := h.node.fab.Sim.Tracer(); tr != nil {
		now := h.node.fab.Sim.Now()
		tr.Span(int64(op.start), int64(now), trace.LayerIbsim, trace.KindRegCall, h.node.name, name,
			uint64(mr.rkey), int64(mr.length))
		tr.Observe(hist, (now - op.start).Micros())
	}
}

// Deregister tears a registration down: TPT invalidate (I/O-bus
// transaction), then per-page unpinning on the host CPU.
func (h *HCA) Deregister(p *des.Proc, mr *MR) {
	h.await(p, func(op *RegOp) { h.DeregisterThen(op, mr, des.Resumer, p) })
}

// DeregisterThen is Deregister for a chain: fn(arg) runs once the region is
// gone.
func (h *HCA) DeregisterThen(op *RegOp, mr *MR, fn func(any), arg any) {
	if mr.global {
		panic("ibsim: cannot deregister the global steering tag")
	}
	op.begin(h, nil, nil, 0, 0, 0, mr, fn, arg)
	h.busThen(op, h.cfg.DeregBase+des.Duration(h.pages(mr.length))*h.cfg.DeregPerPageBus, deregInvalidated)
}

func deregInvalidated(a any) {
	op := a.(*RegOp)
	h := op.h
	h.node.CPU.WorkThen(&op.hold, des.Duration(h.pages(op.mr.length))*h.cfg.DeregPerPageCPU, deregUnpinned, op)
}

func deregUnpinned(a any) {
	op := a.(*RegOp)
	h := op.h
	h.remove(op.mr)
	h.traceReg(op, op.mr, "deregister", "reg.deregister")
	op.finish()
}

// FMRHandle is a pre-allocated fast-registration context: the steering tag
// and TPT slot were allocated at pool-creation time, so mapping a buffer
// into it skips the TPT allocation round trip.
type FMRHandle struct {
	hca    *HCA
	rkey   uint32
	maxLen int
	mr     *MR // currently mapped region, nil when unmapped
	remaps int
}

// NewFMRHandle pre-allocates an FMR context able to map regions up to
// maxLen bytes. This is done at pool initialization, off the critical path,
// so it charges a full registration's base transaction once.
func (h *HCA) NewFMRHandle(p *des.Proc, maxLen int) *FMRHandle {
	h.busTxn(p, h.cfg.RegBase)
	return &FMRHandle{hca: h, rkey: h.allocTag(), maxLen: maxLen}
}

// Rkey returns the handle's current steering tag. Without FMRKeyRotate it is
// fixed for the handle's lifetime — the property the remap-window tests pin.
func (f *FMRHandle) Rkey() uint32 { return f.rkey }

// Map binds the handle's steering tag to a buffer range. Cost is pin +
// translate only (host CPU); no I/O-bus wait — this is what makes FMR
// "considerably faster than a regular registration call" (§4.3).
func (f *FMRHandle) Map(p *des.Proc, buf *Buffer, off, length int, access Access) *MR {
	return f.hca.await(p, func(op *RegOp) { f.MapThen(op, buf, off, length, access, des.Resumer, p) })
}

// MapThen is Map for a chain: fn(arg) runs once the mapping is installed, and
// op.MR() is the region.
func (f *FMRHandle) MapThen(op *RegOp, buf *Buffer, off, length int, access Access, fn func(any), arg any) {
	if f.mr != nil {
		panic("ibsim: FMR handle already mapped")
	}
	if length > f.maxLen {
		panic("ibsim: FMR map larger than handle max (caller must use the fall-back path)")
	}
	h := f.hca
	if f.remaps > 0 {
		if h.cfg.FMRKeyRotate {
			// Fresh tag per remap: a peer holding the previous cycle's rkey
			// faults instead of silently addressing the new mapping.
			f.rkey = h.allocTag()
			h.node.fab.hot.fmrKeyRotations.Inc()
		} else {
			// Pool-time tag reused across mappings — the remap window the
			// adversary's stale-rkey probe exploits.
			h.node.fab.hot.fmrRemapReuse.Inc()
		}
	}
	op.begin(h, f, buf, off, length, access, nil, fn, arg)
	h.node.CPU.WorkThen(&op.hold, des.Duration(h.pages(length))*h.cfg.FMRMapCPU, fmrPinned, op)
}

func fmrPinned(a any) {
	op := a.(*RegOp)
	h := op.h
	h.busThen(op, des.Duration(h.pages(op.length))*h.cfg.FMRMapPerPageBus, fmrMapped)
}

func fmrMapped(a any) {
	op := a.(*RegOp)
	h, f := op.h, op.f
	mr := &MR{
		hca: h, buf: op.buf, bufOff: op.off,
		start: op.buf.Addr(op.off), length: op.length,
		rkey: f.rkey, access: op.access, fmr: true,
	}
	h.install(mr)
	h.traceReg(op, mr, "fmr-map", "reg.fmr_map")
	f.mr = mr
	f.remaps++
	op.mr = mr
	op.finish()
}

// Unmap releases the current mapping; the steering tag remains allocated
// for reuse. Unmapping is deferred-cheap (batched invalidation in the
// Mellanox implementation), modelled as per-page CPU only.
func (f *FMRHandle) Unmap(p *des.Proc) {
	f.hca.await(p, func(op *RegOp) { f.UnmapThen(op, des.Resumer, p) })
}

// UnmapThen is Unmap for a chain: fn(arg) runs once the mapping is gone.
func (f *FMRHandle) UnmapThen(op *RegOp, fn func(any), arg any) {
	if f.mr == nil {
		panic("ibsim: FMR handle not mapped")
	}
	h := f.hca
	op.begin(h, f, nil, 0, 0, 0, nil, fn, arg)
	h.node.CPU.WorkThen(&op.hold, des.Duration(h.pages(f.mr.length))*h.cfg.FMRMapCPU/2, fmrUnmapped, op)
}

func fmrUnmapped(a any) {
	op := a.(*RegOp)
	op.h.remove(op.f.mr)
	op.f.mr = nil
	op.finish()
}

// EnableGlobalRkey installs the all-physical global steering tag: one TPT
// entry spanning the node's entire address space with full remote access.
// Available to privileged consumers only; using it concedes the security
// argument, which is why the paper reserves it for trusted environments.
func (h *HCA) EnableGlobalRkey() *MR {
	if h.globalMR != nil {
		return h.globalMR
	}
	mr := &MR{
		hca:    h,
		start:  0,
		length: 1 << 40, // effectively all of memory
		rkey:   h.allocTag(),
		access: AccessLocalWrite | AccessRemoteRead | AccessRemoteWrite,
		global: true,
	}
	h.install(mr)
	h.globalMR = mr
	return mr
}

// GlobalMR returns the global region, or nil if not enabled.
func (h *HCA) GlobalMR() *MR { return h.globalMR }

// lookup validates a remote access against the TPT and returns the MR.
func (h *HCA) lookup(rkey uint32, addr uint64, length int, want Access) (*MR, error) {
	mr, ok := h.tpt[rkey]
	if !ok {
		return nil, fmt.Errorf("%w: rkey %#x not in TPT", ErrProtection, rkey)
	}
	if mr.access&want == 0 {
		return nil, fmt.Errorf("%w: rkey %#x lacks %v access", ErrProtection, rkey, want)
	}
	if addr < mr.start || addr+uint64(length) > mr.start+uint64(mr.length) {
		return nil, fmt.Errorf("%w: [%#x,+%d) outside MR [%#x,+%d)", ErrProtection, addr, length, mr.start, mr.length)
	}
	return mr, nil
}

// resolve maps a validated (mr, addr) pair to the backing buffer slice
// coordinates. The global MR has no single buffer, so it resolves through
// the node's address space instead.
func (mr *MR) resolve(addr uint64) (*Buffer, int) {
	if mr.global || mr.buf == nil {
		return mr.hca.node.Mem.find(addr)
	}
	return mr.buf, int(addr-mr.start) + mr.bufOff
}
