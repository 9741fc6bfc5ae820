// Package ibsim simulates an InfiniBand fabric at the verbs level: nodes
// with HCAs, reliable-connection queue pairs, completion queues, memory
// regions protected by 32-bit steering tags in a translation protection
// table (TPT), RDMA Send/Recv channel primitives and RDMA Read/Write memory
// primitives, with the ordering rules and IRD/ORD limits the paper's
// protocol analysis depends on.
//
// The simulator moves real bytes for control messages (RDMA Send payloads
// and buffers from Memory.AllocMaterialized) always, and for file payload
// moved by RDMA Read/Write when Fabric.CopyData is enabled, so protocol
// stacks built on it can be verified end to end. Timing flows
// through the des kernel: link serialization on per-node port resources,
// one-way wire latency, per-WQE HCA overhead, and a memory-registration cost
// model.
package ibsim

import (
	"fmt"
	"slices"

	"repro/internal/des"
)

// Buffer is a contiguous virtual-address allocation in a node's memory.
// The paper's all-physical registration mode depends on the fact that a
// virtually contiguous buffer is generally NOT physically contiguous: the
// buffer records its physical runs, and physical-mode chunk building must
// emit one segment per run.
type Buffer struct {
	Base  uint64 // virtual base address (node-local address space)
	Size  int
	data  []byte // materialized only when the fabric copies data
	runs  []int  // physical run lengths, summing to Size
	freed bool

	short [4]int // backs runs when the list is that short: most are
}

// Addr returns the virtual address of byte off within the buffer.
func (b *Buffer) Addr(off int) uint64 { return b.Base + uint64(off) }

// Data returns the materialized bytes, or nil when the fabric is running in
// phantom-data mode.
func (b *Buffer) Data() []byte { return b.data }

// Bytes returns the sub-slice [off, off+n) of the materialized data. It
// panics on out-of-range access — that is always a simulator-user bug, never
// a simulated protocol condition.
func (b *Buffer) Bytes(off, n int) []byte {
	if off < 0 || n < 0 || off+n > b.Size {
		panic(fmt.Sprintf("ibsim: buffer access [%d,%d) outside size %d", off, off+n, b.Size))
	}
	if b.data == nil {
		return nil
	}
	return b.data[off : off+n]
}

// EachRun calls f with each physically contiguous extent covering
// [off, off+n) of the buffer, in order: the offset in the buffer it starts at
// and its length. DMA addressed by physical pages (the all-physical / global
// steering tag mode) needs one descriptor — and hence one RPC/RDMA chunk
// segment — per run. The walk allocates nothing, so a registration keeps no
// list of them.
func (b *Buffer) EachRun(off, n int, f func(off, n int)) {
	if off < 0 || n < 0 || off+n > b.Size {
		panic(fmt.Sprintf("ibsim: EachRun [%d,%d) outside size %d", off, off+n, b.Size))
	}
	pos := 0
	for _, run := range b.runs {
		start, end := pos, pos+run
		pos = end
		if end <= off {
			continue
		}
		if start >= off+n {
			return
		}
		s := max(start, off)
		f(s, min(end, off+n)-s)
	}
}

// Freed reports whether the buffer has been released.
func (b *Buffer) Freed() bool { return b.freed }

// Memory is one node's virtual address space: a bump allocator handing out
// Buffers at increasing addresses, with a synthetic physical-contiguity
// model.
type Memory struct {
	node *Node
	next uint64
	rng  *des.Rand

	// buffers holds the allocations find can resolve, ordered by Base. Free
	// marks a buffer dead and compacts the list once the dead outnumber the
	// live, so a freed buffer is forgotten after amortised O(1) work and the
	// list never exceeds twice the live count however long the node churns.
	buffers []*Buffer
	dead    int

	// pool recycles materialized data slices by power-of-two size class.
	// Staging-heavy protocol paths (the Read-Read design materializes a
	// maxBulk-sized reply buffer per call) would otherwise churn gigabytes
	// of host allocations per simulated second. Reused slices are NOT
	// zero-filled — simulated memory behaves like real DRAM, whose contents
	// after allocation are whatever the previous owner left there.
	pool map[int][][]byte

	// MeanPhysRun is the mean physically contiguous run length in bytes.
	// Kernel slab/page allocators on a busy machine rarely produce long
	// contiguous ranges; the default (32 KiB) is chosen so that all-physical
	// registration of a 128 KiB record needs ~4 read segments, reproducing
	// the paper's §5.2 observation that all-physical WRITE hits the IRD/ORD
	// limit.
	MeanPhysRun int

	allocated int64
}

const pageSize = 4096

func newMemory(node *Node, seed uint64) *Memory {
	return &Memory{node: node, next: 0x1000, rng: des.NewRand(seed), MeanPhysRun: 32 << 10,
		pool: make(map[int][][]byte)}
}

// dataClass rounds a materialized allocation up to its recycling class
// (powers of two ≥ 4 KiB).
func dataClass(size int) int {
	c := 4096
	for c < size {
		c <<= 1
	}
	return c
}

// dataFor returns a byte slice of exactly size bytes, reusing a pooled slice
// of the matching class when one is free (LIFO, deterministic).
func (m *Memory) dataFor(size int) []byte {
	c := dataClass(size)
	if free := m.pool[c]; len(free) > 0 {
		d := free[len(free)-1]
		m.pool[c] = free[:len(free)-1]
		return d[:size]
	}
	return make([]byte, c)[:size]
}

// Alloc returns a new buffer of the given size. Physical runs are drawn
// deterministically from the node's RNG: page-aligned, geometric-ish run
// lengths around MeanPhysRun.
func (m *Memory) Alloc(size int) *Buffer { return m.AllocInto(new(Buffer), size, false) }

// AllocMaterialized returns a buffer whose bytes are always backed by real
// storage, even when the fabric runs in phantom-data mode. Protocol engines
// use it for buffers that carry control information moved by RDMA (long
// calls, long replies, reply slots and deposits), which must survive the
// trip byte-exact; file payload belongs in Alloc.
func (m *Memory) AllocMaterialized(size int) *Buffer { return m.AllocInto(new(Buffer), size, true) }

// AllocInto is Alloc (AllocMaterialized when materialized is set) into a
// zero Buffer the caller owns, so that a buffer can live inside the object
// that owns it (memreg.Chunk) and be allocated with it. A buffer is never
// allocated twice: the address it took dies with it, so b must be fresh.
func (m *Memory) AllocInto(b *Buffer, size int, materialized bool) *Buffer {
	if size <= 0 {
		panic("ibsim: Alloc with non-positive size")
	}
	if b.Size != 0 {
		panic("ibsim: AllocInto of a buffer already allocated")
	}
	b.Base, b.Size = m.next, size
	m.next += uint64(size)
	// Keep a guard gap so adjacent buffers are never part of the same
	// registered range by accident.
	m.next += pageSize
	if materialized || m.node.fab.CopyData {
		b.data = m.dataFor(size)
	}
	// Draw the runs into a stack array first so the list is allocated once,
	// at its final length.
	var stack [16]int
	runs := stack[:0]
	remaining := size
	for remaining > 0 {
		pagesMean := m.MeanPhysRun / pageSize
		if pagesMean < 1 {
			pagesMean = 1
		}
		// Uniform in [1, 2*mean] pages approximates a geometric distribution
		// closely enough and is cheap and bounded.
		run := (1 + m.rng.Intn(2*pagesMean)) * pageSize
		if run > remaining {
			run = remaining
		}
		runs = append(runs, run)
		remaining -= run
	}
	b.runs = append(b.short[:0], runs...)
	m.allocated += int64(size)
	m.buffers = append(m.buffers, b)
	return b
}

// find resolves a virtual address to the live buffer containing it, plus the
// offset within that buffer. It returns (nil, 0) for unmapped addresses.
// Buffers are allocated at increasing Base, so binary search applies.
func (m *Memory) find(addr uint64) (*Buffer, int) {
	lo, hi := 0, len(m.buffers)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.buffers[mid].Base+uint64(m.buffers[mid].Size) <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.buffers) {
		b := m.buffers[lo]
		if addr >= b.Base && addr < b.Base+uint64(b.Size) && !b.freed {
			return b, int(addr - b.Base)
		}
	}
	return nil, 0
}

// AllocContiguous returns a buffer that is physically contiguous (a single
// run), modelling a reserved DMA region.
func (m *Memory) AllocContiguous(size int) *Buffer {
	b := m.Alloc(size)
	b.runs = []int{size}
	return b
}

// Free releases the buffer. The address range is not reused (bump
// allocator), which makes stale-address bugs in protocol code detectable: a
// freed address resolves to nothing for good. The materialized bytes go back
// to the recycling pool, so touching a freed buffer's Data is also
// detectable (it is nil).
func (m *Memory) Free(b *Buffer) {
	if b.freed {
		panic("ibsim: double free")
	}
	b.freed = true
	m.allocated -= int64(b.Size)
	if b.data != nil {
		d := b.data[:cap(b.data)]
		if len(d) == dataClass(b.Size) {
			m.pool[len(d)] = append(m.pool[len(d)], d)
		}
		b.data = nil
	}
	if m.dead++; 2*m.dead > len(m.buffers) {
		m.buffers, m.dead = slices.DeleteFunc(m.buffers, (*Buffer).Freed), 0
	}
}

// AllocatedBytes returns the total live allocation, for leak assertions in
// tests (e.g. the malicious-client buffer-pinning experiment).
func (m *Memory) AllocatedBytes() int64 { return m.allocated }

// Watermark returns the bump allocator's high-water address: every buffer
// ever allocated lives below it. The adversary engine samples probe
// addresses uniformly under the victim's watermark — the best an attacker
// who knows the allocator's shape but not its contents can do.
func (m *Memory) Watermark() uint64 { return m.next }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
