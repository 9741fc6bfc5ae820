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
// A Manager exposes two paths: Get/GetPayload/Put for transport-owned
// staging buffers (where the cache applies), and RegisterExternal for
// caller-owned memory (the zero-copy direct-I/O path, where a cache keyed by
// allocation cannot apply and the dynamic strategy of the mode is used).
// Staging is materialized by purpose: bytes exist where a protocol reads
// them (Get); payload is phantom unless the fabric copies data (GetPayload,
// GetUnregistered).
package memreg

import (
	"fmt"

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
	mr     *ibsim.MR        // non-nil for regular registrations
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
// object holding the buffer and the registration. Outside
// the cache mode (whose slab keeps chunks registered, which is its point) a
// chunk is never reused: once Put, its address resolves to nothing and its
// MR stays invalid for good. Buf is the whole allocation, a cache-mode
// chunk's its size class.
type Chunk struct {
	Buf    ibsim.Buffer
	Reg    *Registration // nil until registered, then &reg
	reg    Registration
	access ibsim.Access
	seq    int64
}

// Data returns the materialized bytes of the chunk (nil in phantom mode).
func (c *Chunk) Data() []byte { return c.Buf.Data() }

// newChunk allocates a chunk of size bytes with its buffer inside it.
func (m *Manager) newChunk(size int, access ibsim.Access, materialized bool) *Chunk {
	c := &Chunk{access: access}
	m.mem.AllocInto(&c.Buf, size, materialized)
	return c
}

// Get returns a buffer of at least size bytes registered with the given
// access, charging whatever the mode costs, for staging that carries
// protocol bytes (long calls and replies, reply slots and deposits): its
// bytes are real even in phantom-data mode, because the peer decodes them.
func (m *Manager) Get(p *des.Proc, size int, access ibsim.Access) *Chunk {
	c := m.alloc(p, size, access, true)
	m.RegisterChunk(p, c, 0)
	return c
}

// GetPayload is Get for staging that carries file payload: nobody reads the
// bytes but the application, so they exist only when the fabric copies data
// (ibsim.Fabric.CopyData), exactly like the caller's own buffers.
func (m *Manager) GetPayload(p *des.Proc, size int, access ibsim.Access) *Chunk {
	c := m.GetUnregistered(p, size, access)
	m.RegisterChunk(p, c, 0)
	return c
}

// GetUnregistered allocates payload staging without (necessarily) paying
// registration yet — the paper's server flow allocates at RPC receipt and
// registers when control returns from the file system. Under the cache
// mode a slab hit arrives already registered, which is the whole point.
func (m *Manager) GetUnregistered(p *des.Proc, size int, access ibsim.Access) *Chunk {
	return m.alloc(p, size, access, false)
}

// alloc returns an unregistered chunk (a registered one under the cache
// mode, whose slab chunks serve payload and protocol staging alike and are
// therefore always materialized).
func (m *Manager) alloc(p *des.Proc, size int, access ibsim.Access, materialized bool) *Chunk {
	if m.cfg.Mode == Cache {
		return m.cacheGet(p, size, access)
	}
	return m.newChunk(size, access, materialized)
}

// RegisterChunk ensures the chunk is registered, charging the mode's cost
// if it is not already. n bounds the registered prefix: the paper's server
// registers exactly the bytes the file system produced, not the whole
// staging allocation. Cache-mode chunks keep their full-class registration
// (that is what makes them reusable); n <= 0 registers the full length.
func (m *Manager) RegisterChunk(p *des.Proc, c *Chunk, n int) {
	if c.Reg != nil {
		return
	}
	if n <= 0 || n > c.Buf.Size {
		n = c.Buf.Size
	}
	m.register(p, &c.reg, m.cfg.Mode, &c.Buf, 0, n, c.access)
	c.Reg = &c.reg
}

// Put releases a chunk obtained from Get, GetPayload or GetUnregistered.
func (m *Manager) Put(p *des.Proc, c *Chunk) {
	if m.cfg.Mode == Cache {
		m.cachePut(p, c)
		return
	}
	if c.Reg != nil {
		m.deregister(p, c.Reg)
	}
	m.mem.Free(&c.Buf)
}

// RegisterExternal registers caller-owned memory (the direct-I/O path).
// The cache mode cannot apply here — it is allocation-linked by design — so
// it falls back to dynamic registration.
func (m *Manager) RegisterExternal(p *des.Proc, buf *ibsim.Buffer, off, length int, access ibsim.Access) *Registration {
	mode := m.cfg.Mode
	if mode == Cache {
		mode = Regular
	}
	r := new(Registration)
	m.register(p, r, mode, buf, off, length, access)
	return r
}

// DeregisterExternal releases a RegisterExternal registration.
func (m *Manager) DeregisterExternal(p *des.Proc, r *Registration) {
	m.deregister(p, r)
}

// register fills r with a registration of buf[off, off+length) under mode.
func (m *Manager) register(p *des.Proc, r *Registration, mode Mode, buf *ibsim.Buffer, off, length int, access ibsim.Access) {
	switch mode {
	case FMR:
		if length <= m.cfg.FMRMaxLen && len(m.fmrFree) > 0 {
			h := m.fmrFree[len(m.fmrFree)-1]
			m.fmrFree = m.fmrFree[:len(m.fmrFree)-1]
			mr := h.Map(p, buf, off, length, access)
			m.stat.FMRMaps++
			*r = Registration{extent: Segment{Rkey: mr.Rkey(), Addr: mr.Start(), Len: length}, fmr: h}
			return
		}
		m.stat.FMRFallback++
		fallthrough
	case Regular, Cache:
		mr := m.hca.Register(p, buf, off, length, access)
		m.stat.Registers++
		*r = Registration{extent: Segment{Rkey: mr.Rkey(), Addr: mr.Start(), Len: length}, mr: mr}
	case AllPhysical:
		// No per-operation cost: the global steering tag addresses pinned
		// physical memory directly, one segment per physically contiguous
		// run (Each).
		g := m.hca.GlobalMR()
		if g == nil {
			panic("memreg: all-physical mode without global rkey enabled")
		}
		*r = Registration{extent: Segment{Rkey: g.Rkey(), Addr: buf.Addr(off), Len: length}, buf: buf}
	default:
		panic("memreg: unknown mode")
	}
}

func (m *Manager) deregister(p *des.Proc, r *Registration) {
	switch {
	case r.fmr != nil:
		r.fmr.Unmap(p)
		m.fmrFree = append(m.fmrFree, r.fmr)
	case r.mr != nil:
		m.hca.Deregister(p, r.mr)
	}
	*r = Registration{}
}

// cacheGet serves a buffer from the slab, registering only on miss.
// Cached buffers whose existing registration lacks the requested access are
// re-registered (counted as a miss): in practice the server requests the
// same local-only access every time, so steady state is all hits.
func (m *Manager) cacheGet(p *des.Proc, size int, access ibsim.Access) *Chunk {
	class := sizeClass(size)
	free := m.slab[class]
	for i := len(free) - 1; i >= 0; i-- {
		c := free[i]
		if c.access&access == access {
			m.slab[class] = append(free[:i], free[i+1:]...)
			m.slabBytes -= int64(class)
			m.stat.CacheHits++
			return c
		}
	}
	m.stat.CacheMisses++
	c := m.newChunk(class, access, true)
	m.register(p, &c.reg, Regular, &c.Buf, 0, class, access)
	c.Reg = &c.reg
	return c
}

// cachePut returns a chunk to the slab, evicting the oldest entries beyond
// the byte bound (the link to the system slab reclaim the paper describes).
func (m *Manager) cachePut(p *des.Proc, c *Chunk) {
	m.slabSeq++
	c.seq = m.slabSeq
	class := c.Buf.Size
	m.slab[class] = append(m.slab[class], c)
	m.slabBytes += int64(class)
	for m.slabBytes > m.cfg.CacheMaxBytes {
		m.evictOldest(p)
	}
}

func (m *Manager) evictOldest(p *des.Proc) {
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
		return
	}
	list := m.slab[victimClass]
	m.slab[victimClass] = append(list[:victimIdx], list[victimIdx+1:]...)
	m.slabBytes -= int64(victimClass)
	m.deregister(p, victim.Reg)
	m.mem.Free(&victim.Buf)
	m.stat.Evictions++
}

// CachedBytes returns the bytes currently held registered in the slab.
func (m *Manager) CachedBytes() int64 { return m.slabBytes }
