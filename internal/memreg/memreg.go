// Package memreg implements the paper's memory registration strategies for
// the RPC/RDMA transport (§4.3):
//
//   - Regular: dynamic per-operation registration — pin, translate and
//     install a TPT entry in the critical path of every RPC.
//   - FMR: Mellanox fast memory registration — steering tags and TPT slots
//     pre-allocated in a pool at initialization; mapping a buffer costs
//     pin/translate only. Regions larger than the pool's maximum fall back
//     to regular registration, transparently.
//   - AllPhysical: the global steering tag available to privileged
//     consumers. No per-operation registration at all, but buffers must be
//     addressed by physically contiguous runs, so a virtually contiguous
//     record fragments into multiple chunk segments — the cause of the
//     paper's Fig. 9(b) WRITE degradation under the IRD/ORD limit.
//   - Cache: the paper's proposed slab-backed buffer registration cache —
//     allocation and registration are fused, buffers come from per-size
//     free lists and stay registered across operations, so a hit costs
//     nothing. Keyed by buffer identity, not virtual address, avoiding the
//     registration-cache correctness problem, and bounded so the slab can
//     be reclaimed.
//
// A Manager exposes two paths: Get/GetPayloadThen/Put for transport-owned
// staging buffers (where the cache applies), and RegisterExternal for
// caller-owned memory (the zero-copy direct-I/O path, where a cache keyed by
// allocation cannot apply and the dynamic strategy of the mode is used).
// Staging is materialized by purpose: bytes exist where a protocol reads
// them (Get); payload is phantom unless the fabric copies data
// (GetPayloadThen, GetUnregisteredThen).
package memreg

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/des"
	"repro/internal/ibsim"
)

// Mode selects a registration strategy.
type Mode int

// Registration modes.
const (
	Regular Mode = iota
	FMR
	AllPhysical
	Cache
)

func (m Mode) String() string {
	switch m {
	case Regular:
		return "register"
	case FMR:
		return "fmr"
	case AllPhysical:
		return "all-physical"
	case Cache:
		return "cache"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode is the inverse of Mode.String.
func ParseMode(name string) (Mode, error) {
	for m := Regular; m <= Cache; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("memreg: unknown registration mode %q", name)
}

// Segment is one RDMA-addressable extent of a registration: what goes into
// an RPC/RDMA chunk segment (steering tag, address, length).
type Segment struct {
	Rkey uint32
	Addr uint64
	Len  int
}

// Registration is a live registration of some buffer range: the range as
// one extent (steering tag, start address, length) and, under all-physical
// registration, the buffer whose physical runs split it into segments. No
// registration holds a list of segments: Each walks them.
type Registration struct {
	extent Segment
	buf    *ibsim.Buffer    // non-nil for all-physical registrations
	mr     *ibsim.MR        // non-nil for regular registrations; until one is made, its MR storage if any
	fmr    *ibsim.FMRHandle // non-nil when mapped through an FMR handle
}

// Each calls f with each RDMA-addressable extent covering the registered
// range, in order: the range itself, or under all-physical registration one
// segment per physically contiguous run of it. A deregistered registration
// has none.
func (r *Registration) Each(f func(Segment)) {
	switch {
	case r.buf != nil:
		r.buf.EachRun(int(r.extent.Addr-r.buf.Base), r.extent.Len, func(off, n int) {
			f(Segment{Rkey: r.extent.Rkey, Addr: r.buf.Addr(off), Len: n})
		})
	case r.extent.Len > 0:
		f(r.extent)
	}
}

// Config tunes a Manager.
type Config struct {
	Mode Mode

	// FMRPoolSize is the number of pre-allocated FMR handles; FMRMaxLen is
	// the largest mappable region per handle (paper: pool 512 × 1 MiB).
	FMRPoolSize int
	FMRMaxLen   int

	// CacheMaxBytes bounds the registration cache slab; the oldest
	// registered buffers are evicted (deregistered and freed) beyond it.
	CacheMaxBytes int64
}

func (c *Config) defaults() {
	if c.FMRPoolSize <= 0 {
		c.FMRPoolSize = 512
	}
	if c.FMRMaxLen <= 0 {
		c.FMRMaxLen = 1 << 20
	}
	if c.CacheMaxBytes <= 0 {
		c.CacheMaxBytes = 256 << 20
	}
}

// Manager provides registered bulk buffers for one endpoint under a chosen
// strategy.
type Manager struct {
	hca  *ibsim.HCA
	mem  *ibsim.Memory
	cfg  Config
	stat Stats

	fmrFree []*ibsim.FMRHandle

	slab      map[int][]*Chunk // size class -> free registered chunks
	slabBytes int64
	slabSeq   int64
	crashed   bool // the slab's HCA state is gone: a chunk Put is dropped

	ops    des.FreeList[Op]    // the process forms' step states between calls
	chunks des.FreeList[Chunk] // Put FMR and all-physical chunks, zeroed
}

// Stats counts strategy activity for the experiment reports.
type Stats struct {
	Registers   int64 // full dynamic registrations
	FMRMaps     int64
	FMRFallback int64 // FMR requests served by regular registration
	CacheHits   int64
	CacheMisses int64
	Evictions   int64
}

// NewManager creates a Manager for the node owning hca. For FMR mode the
// handle pool is pre-allocated here (off the critical path), which is why a
// proc context is required.
func NewManager(p *des.Proc, node *ibsim.Node, cfg Config) *Manager {
	cfg.defaults()
	m := &Manager{
		hca:  node.HCA,
		mem:  node.Mem,
		cfg:  cfg,
		slab: make(map[int][]*Chunk),
	}
	switch cfg.Mode {
	case FMR:
		for i := 0; i < cfg.FMRPoolSize; i++ {
			m.fmrFree = append(m.fmrFree, node.HCA.NewFMRHandle(p, cfg.FMRMaxLen))
		}
	case AllPhysical:
		node.HCA.EnableGlobalRkey()
	}
	return m
}

// Mode returns the configured strategy.
func (m *Manager) Mode() Mode { return m.cfg.Mode }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stat }

// sizeClass rounds a request up to its slab class (powers of two ≥ 4 KiB).
func sizeClass(size int) int {
	c := 4096
	for c < size {
		c <<= 1
	}
	return c
}

// Chunk is a transport-owned staging buffer plus its registration: one heap
// object holding the buffer and the registration, and under the modes that
// register through the TPT (Regular and Cache) the MR too. Once Put, a
// chunk's address resolves to nothing and its MR stays invalid for good; an
// FMR or all-physical chunk, which holds no MR, is then zeroed and reused at
// a new address, a Regular one never. Buf is the whole allocation, a
// cache-mode chunk's its size class.
type Chunk struct {
	Buf    ibsim.Buffer
	Reg    *Registration // nil until registered, then &reg
	reg    Registration
	access ibsim.Access
	seq    int64
}

// Data returns the materialized bytes of the chunk (nil in phantom mode).
func (c *Chunk) Data() []byte { return c.Buf.Data() }

// newChunk allocates a chunk of size bytes with its buffer inside it and,
// under Regular and Cache, the storage of the MR its registration installs;
// under FMR and all-physical it reuses a Put chunk when there is one.
func (m *Manager) newChunk(size int, access ibsim.Access, materialized bool) *Chunk {
	var c *Chunk
	if mode := m.cfg.Mode; mode == Regular || mode == Cache {
		withMR := &struct {
			Chunk
			mr ibsim.MR
		}{}
		c = &withMR.Chunk
		c.reg.mr = &withMR.mr
	} else {
		c = m.chunks.Get()
	}
	c.access = access
	m.mem.AllocInto(&c.Buf, size, materialized)
	return c
}

// Op is the state of one Manager step in flight — GetThen, RegisterChunkThen,
// PutThen and the rest — kept in storage its caller owns and reuses, so that
// a step allocates nothing it does not hand out. A step is a chain of
// callbacks: it waits for the HCA's registration steps, which wait for the
// host CPU and the TPT engine, at the instants and in the places a process
// would. Every process form (Get, Put, ...) is its chain run on a process
// that Suspends until the chain Resumes it.
type Op struct {
	m      *Manager
	reg    ibsim.RegOp
	c      *Chunk        // the chunk got, registered or put; an eviction's victim
	r      *Registration // the registration being made or torn down
	fmr    *ibsim.FMRHandle
	length int
	next   func(*Op) // the step after a registration or deregistration
	fn     func(any)
	arg    any
}

// Chunk returns the chunk a GetThen, GetPayloadThen or GetUnregisteredThen
// got.
func (op *Op) Chunk() *Chunk { return op.c }

// Registration returns the registration a RegisterExternalThen made.
func (op *Op) Registration() *Registration { return op.r }

// begin readies op for a step ending in fn(arg). It sets the fields one by
// one: a step is on the path of every staging or registering RPC, and a
// whole-struct assignment copies the HCA step state too.
func (op *Op) begin(m *Manager, fn func(any), arg any) {
	op.m, op.c, op.r, op.fmr, op.next, op.fn, op.arg = m, nil, nil, nil, nil, fn, arg
}

// finish ends the step: fn(arg), with op still holding the step's results.
func (op *Op) finish() {
	fn, arg := op.fn, op.arg
	op.fn, op.arg, op.next = nil, nil, nil
	fn(arg)
}

func finishOp(op *Op) { op.finish() }

// await runs the step start begins on p and returns its results: the
// process forms are this around their chains.
func (m *Manager) await(p *des.Proc, start func(op *Op)) (*Chunk, *Registration) {
	op := m.ops.Get()
	start(op)
	p.Suspend()
	c, r := op.c, op.r
	*op = Op{}
	m.ops.Put(op)
	return c, r
}

// Get returns a buffer of at least size bytes registered with the given
// access, charging whatever the mode costs, for staging that carries
// protocol bytes (long calls and replies, reply slots and deposits): its
// bytes are real even in phantom-data mode, because the peer decodes them.
func (m *Manager) Get(p *des.Proc, size int, access ibsim.Access) *Chunk {
	c, _ := m.await(p, func(op *Op) { m.GetThen(op, size, access, des.Resumer, p) })
	return c
}

// GetThen is Get for a chain: fn(arg) runs once op.Chunk() is registered.
func (m *Manager) GetThen(op *Op, size int, access ibsim.Access, fn func(any), arg any) {
	op.begin(m, fn, arg)
	m.getRegistered(op, size, access, true)
}

// GetPayloadThen is GetThen for staging that carries file payload: nobody
// reads the bytes but the application, so they exist only when the fabric
// copies data (ibsim.Fabric.CopyData), exactly like the caller's own buffers.
func (m *Manager) GetPayloadThen(op *Op, size int, access ibsim.Access, fn func(any), arg any) {
	op.begin(m, fn, arg)
	m.getRegistered(op, size, access, false)
}

// getRegistered allocates a chunk and registers it (a cache-mode chunk comes
// registered).
func (m *Manager) getRegistered(op *Op, size int, access ibsim.Access, materialized bool) {
	if m.cfg.Mode == Cache {
		m.cacheGet(op, size, access)
		return
	}
	op.c = m.newChunk(size, access, materialized)
	m.registerChunk(op, 0)
}

// GetUnregisteredThen allocates payload staging without (necessarily)
// paying registration yet — the paper's server flow allocates at RPC receipt
// and registers when control returns from the file system. Under the cache
// mode a slab hit arrives already registered, which is the whole point.
// Outside the cache mode it calls fn at once.
func (m *Manager) GetUnregisteredThen(op *Op, size int, access ibsim.Access, fn func(any), arg any) {
	op.begin(m, fn, arg)
	if m.cfg.Mode == Cache {
		m.cacheGet(op, size, access)
		return
	}
	op.c = m.newChunk(size, access, false)
	op.finish()
}

// RegisterChunkThen ensures the chunk is registered, charging the mode's
// cost if it is not already, then calls fn(arg). n bounds the registered
// prefix: the paper's server registers exactly the bytes the file system
// produced, not the whole staging allocation. Cache-mode chunks keep their
// full-class registration (that is what makes them reusable); n <= 0
// registers the full length. A chunk already registered calls fn at once.
func (m *Manager) RegisterChunkThen(op *Op, c *Chunk, n int, fn func(any), arg any) {
	op.begin(m, fn, arg)
	op.c = c
	m.registerChunk(op, n)
}

func (m *Manager) registerChunk(op *Op, n int) {
	c := op.c
	if c.Reg != nil {
		op.finish()
		return
	}
	if n <= 0 || n > c.Buf.Size {
		n = c.Buf.Size
	}
	m.register(op, &c.reg, m.cfg.Mode, &c.Buf, 0, n, c.access, chunkRegistered)
}

func chunkRegistered(op *Op) {
	op.c.Reg = &op.c.reg
	op.finish()
}

// Put releases a chunk obtained from Get, GetPayloadThen or
// GetUnregisteredThen.
func (m *Manager) Put(p *des.Proc, c *Chunk) {
	m.await(p, func(op *Op) { m.PutThen(op, c, des.Resumer, p) })
}

// PutThen is Put for a chain.
func (m *Manager) PutThen(op *Op, c *Chunk, fn func(any), arg any) {
	op.begin(m, fn, arg)
	if m.cfg.Mode == Cache {
		m.cachePut(op, c)
		return
	}
	op.c = c
	if c.Reg != nil {
		m.deregister(op, c.Reg, chunkDeregistered)
		return
	}
	chunkDeregistered(op)
}

func chunkDeregistered(op *Op) {
	m, c := op.m, op.c
	m.mem.Free(&c.Buf)
	if mode := m.cfg.Mode; mode == FMR || mode == AllPhysical {
		*c = Chunk{}
		m.chunks.Put(c)
	}
	op.c = nil
	op.finish()
}

// RegisterExternal registers caller-owned memory (the direct-I/O path).
// The cache mode cannot apply here — it is allocation-linked by design — so
// it falls back to dynamic registration.
func (m *Manager) RegisterExternal(p *des.Proc, buf *ibsim.Buffer, off, length int, access ibsim.Access) *Registration {
	_, r := m.await(p, func(op *Op) { m.RegisterExternalThen(op, buf, off, length, access, des.Resumer, p) })
	return r
}

// RegisterExternalThen is RegisterExternal for a chain: fn(arg) runs once
// op.Registration() is made.
func (m *Manager) RegisterExternalThen(op *Op, buf *ibsim.Buffer, off, length int, access ibsim.Access, fn func(any), arg any) {
	op.begin(m, fn, arg)
	mode := m.cfg.Mode
	var r *Registration
	if mode == Regular || mode == Cache {
		withMR := &struct {
			Registration
			mr ibsim.MR
		}{}
		mode, r = Regular, &withMR.Registration
		r.mr = &withMR.mr
	} else {
		r = new(Registration)
	}
	m.register(op, r, mode, buf, off, length, access, finishOp)
}

// DeregisterExternal releases a RegisterExternal registration.
func (m *Manager) DeregisterExternal(p *des.Proc, r *Registration) {
	m.await(p, func(op *Op) { m.DeregisterExternalThen(op, r, des.Resumer, p) })
}

// DeregisterExternalThen is DeregisterExternal for a chain.
func (m *Manager) DeregisterExternalThen(op *Op, r *Registration, fn func(any), arg any) {
	op.begin(m, fn, arg)
	m.deregister(op, r, finishOp)
}

// register fills r with a registration of buf[off, off+length) under mode,
// then calls next(op) with op.r = r. A regular registration installs its MR
// into the storage r.mr points to, if any; deregistering clears r, never the
// MR.
func (m *Manager) register(op *Op, r *Registration, mode Mode, buf *ibsim.Buffer, off, length int, access ibsim.Access, next func(*Op)) {
	op.r, op.length, op.next = r, length, next
	switch mode {
	case FMR:
		if length <= m.cfg.FMRMaxLen && len(m.fmrFree) > 0 {
			op.fmr = m.fmrFree[len(m.fmrFree)-1]
			m.fmrFree = m.fmrFree[:len(m.fmrFree)-1]
			op.fmr.MapThen(&op.reg, buf, off, length, access, fmrMapped, op)
			return
		}
		m.stat.FMRFallback++
		fallthrough
	case Regular, Cache:
		m.hca.RegisterThen(&op.reg, r.mr, buf, off, length, access, mrRegistered, op)
	case AllPhysical:
		// No per-operation cost: the global steering tag addresses pinned
		// physical memory directly, one segment per physically contiguous
		// run (Each).
		g := m.hca.GlobalMR()
		if g == nil {
			panic("memreg: all-physical mode without global rkey enabled")
		}
		*r = Registration{extent: Segment{Rkey: g.Rkey(), Addr: buf.Addr(off), Len: length}, buf: buf}
		op.step()
	default:
		panic("memreg: unknown mode")
	}
}

// step calls the step after a registration or deregistration.
func (op *Op) step() {
	next := op.next
	op.next = nil
	next(op)
}

func fmrMapped(a any) {
	op := a.(*Op)
	mr := op.reg.MR()
	op.m.stat.FMRMaps++
	*op.r = Registration{extent: Segment{Rkey: mr.Rkey(), Addr: mr.Start(), Len: op.length}, fmr: op.fmr}
	op.fmr = nil
	op.step()
}

func mrRegistered(a any) {
	op := a.(*Op)
	mr := op.reg.MR()
	op.m.stat.Registers++
	*op.r = Registration{extent: Segment{Rkey: mr.Rkey(), Addr: mr.Start(), Len: op.length}, mr: mr}
	op.step()
}

// deregister tears r down, then calls next(op).
func (m *Manager) deregister(op *Op, r *Registration, next func(*Op)) {
	op.r, op.next = r, next
	switch {
	case r.fmr != nil:
		r.fmr.UnmapThen(&op.reg, fmrUnmapped, op)
	case r.mr != nil:
		m.hca.DeregisterThen(&op.reg, r.mr, mrDeregistered, op)
	default:
		mrDeregistered(op)
	}
}

func fmrUnmapped(a any) {
	op := a.(*Op)
	op.m.fmrFree = append(op.m.fmrFree, op.r.fmr)
	mrDeregistered(op)
}

func mrDeregistered(a any) {
	op := a.(*Op)
	*op.r = Registration{}
	op.r = nil
	op.step()
}

// cacheGet serves a buffer from the slab, registering only on miss, and
// finishes op with it.
// Cached buffers whose existing registration lacks the requested access are
// re-registered (counted as a miss): in practice the server requests the
// same local-only access every time, so steady state is all hits.
func (m *Manager) cacheGet(op *Op, size int, access ibsim.Access) {
	class := sizeClass(size)
	free := m.slab[class]
	for i := len(free) - 1; i >= 0; i-- {
		c := free[i]
		if c.access&access == access {
			m.slab[class] = append(free[:i], free[i+1:]...)
			m.slabBytes -= int64(class)
			m.stat.CacheHits++
			op.c = c
			op.finish()
			return
		}
	}
	m.stat.CacheMisses++
	op.c = m.newChunk(class, access, true)
	m.register(op, &op.c.reg, Regular, &op.c.Buf, 0, class, access, chunkRegistered)
}

// cachePut returns a chunk to the slab, evicting the oldest entries beyond
// the byte bound (the link to the system slab reclaim the paper describes),
// and finishes op.
func (m *Manager) cachePut(op *Op, c *Chunk) {
	if m.crashed {
		m.drop(c)
		op.finish()
		return
	}
	m.slabSeq++
	c.seq = m.slabSeq
	class := c.Buf.Size
	m.slab[class] = append(m.slab[class], c)
	m.slabBytes += int64(class)
	m.evictOldest(op)
}

// evictOldest evicts the oldest slab entry while the slab is over its bound,
// then finishes op.
func (m *Manager) evictOldest(op *Op) {
	if m.slabBytes <= m.cfg.CacheMaxBytes {
		op.finish()
		return
	}
	var victimClass int
	var victimIdx int
	var victim *Chunk
	for class, list := range m.slab {
		for i, c := range list {
			if victim == nil || c.seq < victim.seq {
				victim, victimClass, victimIdx = c, class, i
			}
		}
	}
	if victim == nil {
		op.finish()
		return
	}
	list := m.slab[victimClass]
	m.slab[victimClass] = append(list[:victimIdx], list[victimIdx+1:]...)
	m.slabBytes -= int64(victimClass)
	op.c = victim
	m.deregister(op, victim.Reg, evicted)
}

func evicted(op *Op) {
	m := op.m
	m.mem.Free(&op.c.Buf)
	op.c = nil
	m.stat.Evictions++
	m.evictOldest(op)
}

// CachedBytes returns the bytes currently held registered in the slab.
func (m *Manager) CachedBytes() int64 { return m.slabBytes }

// FreeChunks returns the number of Put chunks waiting to be reused.
func (m *Manager) FreeChunks() int { return len(m.chunks) }

// Crash drops the slab at no virtual cost, for a node whose HCA state is
// lost: each cached chunk's MR leaves the TPT and its buffer is freed, and
// so does every chunk Put from then on (a call in flight at the crash).
func (m *Manager) Crash() {
	m.crashed = true
	for _, class := range slices.Sorted(maps.Keys(m.slab)) {
		for _, c := range m.slab[class] {
			m.drop(c)
		}
	}
	clear(m.slab)
	m.slabBytes = 0
}

func (m *Manager) drop(c *Chunk) {
	m.hca.Invalidate(c.Reg.mr)
	m.mem.Free(&c.Buf)
}
