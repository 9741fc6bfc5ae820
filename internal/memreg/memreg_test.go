package memreg

import (
	"testing"
	"testing/quick"
	"time"

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

func TestCacheAccessMismatchReRegisters(t *testing.T) {
	sim := des.New()
	node := costNode(sim)
	sim.Spawn("op", func(p *des.Proc) {
		m := NewManager(p, node, Config{Mode: Cache})
		c := m.Get(p, 4096, ibsim.AccessLocalWrite)
		m.Put(p, c)
		c2 := m.Get(p, 4096, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
		if m.Stats().CacheMisses != 2 {
			t.Errorf("misses = %d, want 2 (access mismatch must not hit)", m.Stats().CacheMisses)
		}
		m.Put(p, c2)
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
// staging (Get) always, payload staging (GetPayload, GetUnregistered) only
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
				payload := m.GetPayload(p, size, ibsim.AccessLocalWrite)
				deferred := m.GetUnregistered(p, size, ibsim.AccessLocalWrite)
				m.RegisterChunk(p, deferred, size)
				if protocol.Data() == nil {
					t.Errorf("copy=%v %v: protocol staging has no bytes", copyData, mode)
				}
				wantPayload := copyData || mode == Cache
				for name, c := range map[string]*Chunk{"GetPayload": payload, "GetUnregistered": deferred} {
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

// TestChunkIsOneObject pins what a Get plus its Put costs the host: the
// chunk holds its buffer and its registration, which stores no segment list,
// so an all-physical chunk is one allocation however many physical runs it
// spans, a regular one two (the chunk and the TPT entry, which stays its own
// object), and a cache hit none.
func TestChunkIsOneObject(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		size int // 4 KiB is one physical run, 128 KiB several
		want float64
	}{{AllPhysical, 4096, 1}, {AllPhysical, 128 << 10, 1}, {Regular, 4096, 2}, {Cache, 4096, 0}} {
		sim := des.New()
		node := costNode(sim)
		sim.Spawn("op", func(p *des.Proc) {
			m := NewManager(p, node, Config{Mode: tc.mode})
			m.Put(p, m.Get(p, tc.size, ibsim.AccessLocalWrite)) // warms the slab
			allocs := testing.AllocsPerRun(100, func() {
				c := m.Get(p, tc.size, ibsim.AccessLocalWrite)
				c.Reg.Each(func(Segment) {})
				m.Put(p, c)
			})
			if allocs != tc.want {
				t.Errorf("%v, %d bytes: Get+Put allocates %.0f objects, want %.0f", tc.mode, tc.size, allocs, tc.want)
			}
		})
		sim.Run()
	}
}

// TestChunkFusedNotRecycled: outside the cache mode a chunk is never reused.
// Once Put its buffer reports freed, its TPT entry is invalid for good (what
// a stale rkey or an in-flight Read still holding it sees), and the next Get
// of the same size is a new chunk at a higher address.
func TestChunkFusedNotRecycled(t *testing.T) {
	for _, mode := range []Mode{Regular, FMR, AllPhysical} {
		sim := des.New()
		node := costNode(sim)
		sim.Spawn("op", func(p *des.Proc) {
			m := NewManager(p, node, Config{Mode: mode, FMRPoolSize: 4})
			c := m.Get(p, 64<<10, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
			mr := c.Reg.mr
			if (mr != nil) != (mode == Regular) {
				t.Errorf("%v: registration MR = %v", mode, mr)
			}
			m.Put(p, c)
			if !c.Buf.Freed() {
				t.Errorf("%v: a Put chunk's buffer is not freed", mode)
			}
			if mr != nil && mr.Valid() { // an FMR's MR lives in its handle, all-physical has none
				t.Errorf("%v: a Put chunk's MR is still valid", mode)
			}
			next := m.Get(p, 64<<10, ibsim.AccessLocalWrite|ibsim.AccessRemoteRead)
			if next == c || next.Buf.Base <= c.Buf.Base {
				t.Errorf("%v: the next Get returned chunk %p at %#x after %p at %#x: want a new chunk at a higher address",
					mode, next, next.Buf.Base, c, c.Buf.Base)
			}
			m.Put(p, next)
		})
		sim.Run()
	}
}
