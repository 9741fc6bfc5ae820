package memreg

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/des"
	"repro/internal/ibsim"
)

// costNode builds a node with visible registration costs so strategy cost
// differences are measurable in virtual time.
func costNode(sim *des.Sim) *ibsim.Node {
	fab := ibsim.NewFabric(sim, false)
	return fab.AddNode(ibsim.NodeConfig{
		Name: "n", Cores: 4,
		RegPerPageCPU: 500 * time.Nanosecond,
		RegBase:       10 * time.Microsecond, RegPerPageBus: 300 * time.Nanosecond,
		DeregPerPageCPU: 200 * time.Nanosecond,
		DeregBase:       5 * time.Microsecond, DeregPerPageBus: 150 * time.Nanosecond,
		FMRMapCPU:   300 * time.Nanosecond,
		MeanPhysRun: 32 << 10,
	})
}

// timeOp measures the virtual time an operation takes inside a proc.
func timeOp(t *testing.T, node *ibsim.Node, fn func(p *des.Proc)) des.Duration {
	t.Helper()
	var took des.Duration
	sim := node.Sim()
	sim.Spawn("op", func(p *des.Proc) {
		start := p.Now()
		fn(p)
		took = des.Duration(p.Now() - start)
	})
	sim.Run()
	return took
}

func TestRegularChargesFullCost(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	took := timeOp(t, node, func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Regular})
		c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
		if n := len(segments(c.Reg)); n != 1 {
			t.Errorf("segments = %d, want 1", n)
		}
		m.Put(p, c)
	})
	// 32 pages * 500ns + 20µs bus + dereg 32*200ns + 10µs ≈ 52.4µs
	if took < 40*time.Microsecond {
		t.Fatalf("regular register+deregister took %v, expected substantial cost", took)
	}
}

func TestFMRCheaperThanRegular(t *testing.T) {
	simR := des.New()
	nodeR := costNode(simR)
	regular := timeOp(t, nodeR, func(p *des.Proc) {
		m := NewManager(p, nodeR, Config{Mode: Regular})
		for i := 0; i < 10; i++ {
			c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
			m.Put(p, c)
		}
	})
	simF := des.New()
	nodeF := costNode(simF)
	var fmrOnly des.Duration
	simF.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, nodeF, Config{Mode: FMR, FMRPoolSize: 8, FMRMaxLen: 1 << 20})
		start := p.Now()
		for i := 0; i < 10; i++ {
			c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
			m.Put(p, c)
		}
		fmrOnly = des.Duration(p.Now() - start)
		if m.Stats().FMRMaps != 10 {
			t.Errorf("fmr maps = %d, want 10", m.Stats().FMRMaps)
		}
	})
	simF.Run()
	if fmrOnly >= regular {
		t.Fatalf("FMR (%v) should beat regular (%v)", fmrOnly, regular)
	}
}

func TestFMRFallbackForLargeRegions(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: FMR, FMRPoolSize: 4, FMRMaxLen: 64 << 10})
		c := m.Get(p, 1<<20, ibsim.AccessLocalWrite) // larger than FMR max
		if m.Stats().FMRFallback != 1 || m.Stats().Registers != 1 {
			t.Errorf("stats = %+v, want fallback to regular", m.Stats())
		}
		m.Put(p, c)
	})
	sim.Run()
}

func TestFMRPoolExhaustionFallsBack(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: FMR, FMRPoolSize: 2, FMRMaxLen: 1 << 20})
		a := m.Get(p, 4096, ibsim.AccessLocalWrite)
		b := m.Get(p, 4096, ibsim.AccessLocalWrite)
		c := m.Get(p, 4096, ibsim.AccessLocalWrite) // pool exhausted
		if m.Stats().FMRFallback != 1 {
			t.Errorf("fallbacks = %d, want 1", m.Stats().FMRFallback)
		}
		m.Put(p, a)
		m.Put(p, b)
		m.Put(p, c)
		d := m.Get(p, 4096, ibsim.AccessLocalWrite) // handles returned
		if m.Stats().FMRMaps != 3 {
			t.Errorf("maps = %d, want 3", m.Stats().FMRMaps)
		}
		m.Put(p, d)
	})
	sim.Run()
}

func TestAllPhysicalZeroCostButFragmented(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	var segs int
	took := timeOp(t, node, func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: AllPhysical})
		c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
		segs = len(segments(c.Reg))
		total := 0
		for _, s := range segments(c.Reg) {
			if s.Rkey != node.HCA.GlobalMR().Rkey() {
				t.Error("segment not using global rkey")
			}
			total += s.Len
		}
		if total != 128<<10 {
			t.Errorf("segments cover %d bytes, want %d", total, 128<<10)
		}
		m.Put(p, c)
	})
	if took > time.Microsecond {
		t.Fatalf("all-physical took %v, want ~0", took)
	}
	if segs < 2 {
		t.Fatalf("segments = %d, want fragmentation into multiple runs", segs)
	}
}

func TestCacheHitsAfterWarmup(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	var cold, warm des.Duration
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache})
		start := p.Now()
		c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
		cold = des.Duration(p.Now() - start)
		m.Put(p, c)
		start = p.Now()
		for i := 0; i < 10; i++ {
			c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
			m.Put(p, c)
		}
		warm = des.Duration(p.Now() - start)
		st := m.Stats()
		if st.CacheMisses != 1 || st.CacheHits != 10 {
			t.Errorf("stats = %+v, want 1 miss / 10 hits", st)
		}
	})
	sim.Run()
	if warm != 0 {
		t.Fatalf("warm path took %v, want zero cost", warm)
	}
	if cold == 0 {
		t.Fatal("cold path should cost a registration")
	}
}

func TestCacheBoundedAndEvicts(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache, CacheMaxBytes: 256 << 10})
		var chunks []*Chunk
		for i := 0; i < 8; i++ {
			chunks = append(chunks, m.Get(p, 64<<10, ibsim.AccessLocalWrite))
		}
		for _, c := range chunks {
			m.Put(p, c)
		}
		if m.CachedBytes() > 256<<10 {
			t.Errorf("cached bytes = %d exceeds bound", m.CachedBytes())
		}
		if m.Stats().Evictions == 0 {
			t.Error("expected evictions beyond the byte bound")
		}
	})
	sim.Run()
}

// TestCrashDropsTheSlab: a crash loses the HCA state the cache's slab stands
// for, so Crash takes each cached chunk's MR out of the TPT and frees its
// buffer at once, at no virtual cost, and a chunk in use at the crash is
// dropped the same way when it is Put.
func TestCrashDropsTheSlab(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache})
		const size = 64 << 10
		access := ibsim.AccessLocalWrite | ibsim.AccessRemoteRead
		var chunks []*Chunk
		for i := 0; i < 3; i++ {
			chunks = append(chunks, m.Get(p, size, access))
		}
		m.Put(p, chunks[0])
		m.Put(p, chunks[1])
		hca, mem := node.HCA, node.Mem
		if hca.RemoteExposedBytes() != 3*size || m.CachedBytes() != 2*size {
			t.Fatalf("before the crash: %d bytes exposed, %d cached", hca.RemoteExposedBytes(), m.CachedBytes())
		}
		now := p.Now()
		m.Crash()
		if p.Now() != now || hca.RemoteExposedBytes() != size || m.CachedBytes() != 0 || mem.AllocatedBytes() != size {
			t.Errorf("after the crash: %v later, %d bytes exposed, %d cached, %d allocated; want none, the one in use, 0, it",
				p.Now()-now, hca.RemoteExposedBytes(), m.CachedBytes(), mem.AllocatedBytes())
		}
		m.Put(p, chunks[2])
		if p.Now() != now || hca.RemoteExposedBytes() != 0 || m.CachedBytes() != 0 || mem.AllocatedBytes() != 0 {
			t.Errorf("after its Put: %v later, %d bytes exposed, %d cached, %d allocated; want none",
				p.Now()-now, hca.RemoteExposedBytes(), m.CachedBytes(), mem.AllocatedBytes())
		}
	})
	sim.Run()
}

func TestCacheNeverExposesBuffersRemotely(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache})
		for i := 0; i < 5; i++ {
			c := m.Get(p, 128<<10, ibsim.AccessLocalWrite)
			m.Put(p, c)
		}
		if node.HCA.RemoteExposedBytes() != 0 {
			t.Errorf("registration cache exposed %d bytes remotely", node.HCA.RemoteExposedBytes())
		}
	})
	sim.Run()
}

// TestCacheAccessMismatchReRegisters: a slab chunk whose access falls short
// is not served, a new chunk is registered instead, and that registration
// has an MR of its own. The slab bound evicts the first chunk when the
// second is Put: its MR object outlives the registration, invalid, with the
// rkey it had.
func TestCacheAccessMismatchReRegisters(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache, CacheMaxBytes: 4096})
		c := m.Get(p, 4096, ibsim.AccessLocalWrite)
		mr := c.Reg.mr
		rkey := mr.Rkey()
		m.Put(p, c)
		c2 := m.Get(p, 4096, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
		if m.Stats().CacheMisses != 2 {
			t.Errorf("misses = %d, want 2 (access mismatch must not hit)", m.Stats().CacheMisses)
		}
		mr2 := c2.Reg.mr
		m.Put(p, c2)
		if m.Stats().Evictions != 1 {
			t.Errorf("evictions = %d, want 1", m.Stats().Evictions)
			return
		}
		if mr2 == mr || !mr2.Valid() {
			t.Errorf("the re-registration's MR %p (valid %v) is the first one's %p", mr2, mr2.Valid(), mr)
		}
		if mr.Valid() || mr.Rkey() != rkey {
			t.Errorf("the evicted chunk's MR: valid %v, rkey %#x, want invalid with rkey %#x", mr.Valid(), mr.Rkey(), rkey)
		}
	})
	sim.Run()
}

func TestExternalRegistrationModes(t *testing.T) {
	for _, mode := range []Mode{Regular, FMR, AllPhysical, Cache} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			sim := des.New()
			node := costNode(sim)
			sim.Spawn("op", func(p *des.Proc) {
				m := NewManager(p, node, Config{Mode: mode})
				user := node.Mem.Alloc(256 << 10)
				r := m.RegisterExternal(p, user, 4096, 128<<10, ibsim.AccessRemoteWrite)
				total := 0
				for _, s := range segments(r) {
					total += s.Len
				}
				if total != 128<<10 {
					t.Errorf("segments cover %d, want %d", total, 128<<10)
				}
				m.DeregisterExternal(p, r)
			})
			sim.Run()
		})
	}
}

func TestSizeClassProperty(t *testing.T) {
	f := func(n uint16) bool {
		size := int(n) + 1
		c := sizeClass(size)
		return c >= size && c >= 4096 && (c&(c-1)) == 0 && (c == 4096 || c/2 < size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCacheAlwaysCoversRequest(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache, CacheMaxBytes: 1 << 20})
		rng := des.NewRand(99)
		for i := 0; i < 300; i++ {
			size := 1 + rng.Intn(512<<10)
			c := m.Get(p, size, ibsim.AccessLocalWrite)
			if c.Buf.Size < size {
				t.Errorf("buffer %d < requested %d", c.Buf.Size, size)
			}
			if !c.Reg.mr.Valid() {
				t.Error("cache returned invalid registration")
			}
			m.Put(p, c)
		}
	})
	sim.Run()
}

// TestStagingMaterializedByPurpose pins which staging has bytes: protocol
// staging (Get) always, payload staging (GetPayloadThen, GetUnregisteredThen) only
// when the fabric copies data — except under the cache mode, whose slab
// chunks serve both and are always materialized. Registration does not
// depend on it: the segments cover the chunk either way.
func TestStagingMaterializedByPurpose(t *testing.T) {
	for _, copyData := range []bool{false, true} {
		for _, mode := range []Mode{Regular, FMR, AllPhysical, Cache} {
			sim := des.New()
			node := ibsim.NewFabric(sim, copyData).AddNode(ibsim.NodeConfig{Name: "n", Cores: 1})
			sim.Spawn("op", func(p *des.Proc) {
				m := NewManager(p, node, Config{Mode: mode, FMRPoolSize: 4})
				const size = 64 << 10
				protocol := m.Get(p, size, ibsim.AccessLocalWrite)
				payload, _ := m.await(p, func(op *Op) { m.GetPayloadThen(op, size, ibsim.AccessLocalWrite, des.Resumer, p) })
				deferred, _ := m.await(p, func(op *Op) { m.GetUnregisteredThen(op, size, ibsim.AccessLocalWrite, des.Resumer, p) })
				m.await(p, func(op *Op) { m.RegisterChunkThen(op, deferred, size, des.Resumer, p) })
				if protocol.Data() == nil {
					t.Errorf("copy=%v %v: protocol staging has no bytes", copyData, mode)
				}
				wantPayload := copyData || mode == Cache
				for name, c := range map[string]*Chunk{"GetPayloadThen": payload, "GetUnregisteredThen": deferred} {
					if got := c.Data() != nil; got != wantPayload {
						t.Errorf("copy=%v %v: %s materialized = %v, want %v", copyData, mode, name, got, wantPayload)
					}
					covered := 0
					for _, s := range segments(c.Reg) {
						covered += s.Len
					}
					if covered < size {
						t.Errorf("copy=%v %v: %s registered %d of %d bytes", copyData, mode, name, covered, size)
					}
				}
				m.Put(p, protocol)
				m.Put(p, payload)
				m.Put(p, deferred)
			})
			sim.Run()
		}
	}
}

// TestChunkIsOneObject pins what a Get plus its Put costs the host once the
// Manager is warm: the chunk holds its buffer and its registration, which
// stores no segment list, and an FMR or all-physical chunk is reused after
// its Put, so an all-physical Get+Put allocates nothing however many
// physical runs the chunk spans, an FMR one only the mapping's MR (the
// handle's to make), a regular one its chunk (the TPT entry is inside, and
// serves one registration), and a cache hit nothing.
func TestChunkIsOneObject(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		size int // 4 KiB is one physical run, 128 KiB several
		want float64
	}{{AllPhysical, 4096, 0}, {AllPhysical, 128 << 10, 0}, {Regular, 4096, 1}, {FMR, 4096, 1}, {Cache, 4096, 0}} {
		sim := des.New()
		node := costNode(sim)
		sim.Spawn("op", func(p *des.Proc) {
			m := NewManager(p, node, Config{Mode: tc.mode, FMRPoolSize: 4})
			m.Put(p, m.Get(p, tc.size, ibsim.AccessLocalWrite)) // warms the slab or the free list
			allocs := testing.AllocsPerRun(100, func() {
				c := m.Get(p, tc.size, ibsim.AccessLocalWrite)
				c.Reg.Each(func(Segment) {})
				m.Put(p, c)
			})
			t.Logf("%v, %d bytes: Get+Put allocates %.0f objects", tc.mode, tc.size, allocs)
			if allocs != tc.want {
				t.Errorf("%v, %d bytes: Get+Put allocates %.0f objects, want %.0f", tc.mode, tc.size, allocs, tc.want)
			}
		})
		sim.Run()
	}
}

// fill sets every byte of b to v.
func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// TestPutChunkAddressDiesForGood: once Put, a staging chunk's address
// resolves to nothing for good, whether or not its record is reused. A peer's
// Read there through the global steering tag, which reaches every live
// buffer of the node, brings no byte — neither the Put chunk's nor the next
// one's —, the next Get is at a higher address, and a Regular chunk's MR
// stays invalid. An FMR or all-physical chunk holds no MR and may come back
// as the next Get's; a Regular one never does (its MR served one
// registration).
func TestPutChunkAddressDiesForGood(t *testing.T) {
	const size = 64 << 10
	for _, mode := range []Mode{Regular, FMR, AllPhysical} {
		sim := des.New()
		fab := ibsim.NewFabric(sim, true)
		node := fab.AddNode(ibsim.NodeConfig{Name: "n", Cores: 4})
		peer := fab.AddNode(ibsim.NodeConfig{Name: "peer", Cores: 1})
		qp, _ := fab.Connect(peer, node, ibsim.QPConfig{})
		global := node.HCA.EnableGlobalRkey()
		// read returns the first byte a peer's 4 KiB Read at addr brings, 0
		// for none.
		read := func(p *des.Proc, addr uint64) byte {
			local := peer.Mem.AllocMaterialized(4096)
			cqe := qp.PostAndWait(p, &ibsim.SendWQE{
				Op: ibsim.OpRead, Local: []ibsim.LocalSeg{{Buf: local, Len: 4096}},
				RemoteKey: global.Rkey(), RemoteAddr: addr,
			})
			if cqe.Err != nil {
				t.Fatalf("%v: the Read at %#x completed with %v", mode, addr, cqe.Err)
			}
			return local.Data()[0]
		}
		sim.Spawn("op", func(p *des.Proc) {
			m := NewManager(p, node, Config{Mode: mode, FMRPoolSize: 4})
			// Two chunks stay live throughout, so the node's address index
			// keeps the Put chunk's entry instead of compacting it away.
			held := []*Chunk{m.Get(p, size, ibsim.AccessLocalWrite), m.Get(p, size, ibsim.AccessLocalWrite)}
			c := m.Get(p, size, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
			mr, base := c.Reg.mr, c.Buf.Base
			if (mr != nil) != (mode == Regular) {
				t.Errorf("%v: registration MR = %v", mode, mr)
			}
			fill(c.Data(), 0x11)
			if got := read(p, base); got != 0x11 {
				t.Fatalf("%v: a Read of the live chunk brought %#x, want 0x11", mode, got)
			}
			m.Put(p, c)
			if mr != nil && mr.Valid() { // an FMR's MR lives in its handle, all-physical has none
				t.Errorf("%v: a Put chunk's MR is still valid", mode)
			}
			next := m.Get(p, size, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
			fill(next.Data(), 0x5a)
			if next.Buf.Base <= base {
				t.Errorf("%v: the next Get is at %#x after %#x: want a higher address", mode, next.Buf.Base, base)
			}
			if mode == Regular && next == c {
				t.Errorf("%v: the next Get reused the Put chunk", mode)
			}
			for _, off := range []uint64{0, size - 4096} {
				if got := read(p, base+off); got != 0 {
					t.Errorf("%v: a Read at the Put chunk's %#x+%d brought %#x, want nothing", mode, base, off, got)
				}
			}
			if got := read(p, next.Buf.Base); got != 0x5a {
				t.Errorf("%v: a Read of the next chunk brought %#x, want 0x5a", mode, got)
			}
			for _, c := range append(held, next) {
				m.Put(p, c)
			}
			func() { // a chunk reused or not, its second Put is the caller's bug
				defer func() {
					if recover() == nil {
						t.Errorf("%v: a second Put of a chunk did not panic", mode)
					}
				}()
				m.Put(p, next)
			}()
		})
		sim.Run()
	}
}

// TestChunkSizes: a Registration is 48 bytes and a Chunk, all that an
// all-physical or FMR chunk allocates, at most 176. MR storage is allocated
// with them only under the modes that register through the TPT.
func TestChunkSizes(t *testing.T) {
	if n := unsafe.Sizeof(Registration{}); n != 48 {
		t.Errorf("a Registration is %d bytes, want 48", n)
	}
	if n := unsafe.Sizeof(Chunk{}); n > 176 {
		t.Errorf("a Chunk is %d bytes, want at most 176", n)
	}
}

// TestReadInFlightOverPutChunk: a peer's RDMA Read that the responder has
// accepted is still on the wire when the chunk it reads is Put and the next
// chunk is got — under FMR and all-physical, the same record at a new
// address. The Read completes, and brings no byte of the next chunk: the dead
// region resolves to the freed buffer (Regular: its MR keeps its fields) or
// to nothing (an FMR mapping whose buffer moved, the global region's freed
// range).
func TestReadInFlightOverPutChunk(t *testing.T) {
	for _, mode := range []Mode{Regular, FMR, AllPhysical} {
		sim := des.New()
		fab := ibsim.NewFabric(sim, true)
		srv := fab.AddNode(ibsim.NodeConfig{Name: "srv", Cores: 4, DeregBase: 5 * time.Microsecond})
		peer := fab.AddNode(ibsim.NodeConfig{Name: "peer", Cores: 1})
		qp, _ := fab.Connect(peer, srv, ibsim.QPConfig{})
		const size = 64 << 10 // 73 µs on the wire at the default 900 MB/s
		sim.Spawn("srv", func(p *des.Proc) {
			m := NewManager(p, srv, Config{Mode: mode, FMRPoolSize: 4})
			c := m.Get(p, size, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
			mr, seg := c.Reg.mr, segments(c.Reg)[0]
			fill(c.Data(), 0x11)
			var next *Chunk
			sim.Spawn("peer", func(p *des.Proc) {
				local := peer.Mem.AllocMaterialized(size)
				cqe := qp.PostAndWait(p, &ibsim.SendWQE{
					Op: ibsim.OpRead, Local: []ibsim.LocalSeg{{Buf: local, Len: size}},
					RemoteKey: seg.Rkey, RemoteAddr: seg.Addr,
				})
				if cqe.Err != nil || cqe.Bytes != size {
					t.Errorf("%v: the Read completed with %v, %d bytes", mode, cqe.Err, cqe.Bytes)
					return
				}
				if next == nil || mr != nil && mr.Valid() {
					t.Errorf("%v: the Read landed before the chunk was Put and another got", mode)
					return
				}
				if bytes.IndexByte(local.Data(), 0x5a) >= 0 {
					t.Errorf("%v: the Read brought bytes of the chunk got after the Put", mode)
				}
			})
			p.Sleep(10 * time.Microsecond) // the Read is accepted, its data on the wire
			m.Put(p, c)
			next = m.Get(p, size, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
			fill(next.Data(), 0x5a)
		})
		sim.Run()
	}
}
