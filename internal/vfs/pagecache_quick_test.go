package vfs

import (
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// Property tests on the page cache's invariants: residency never exceeds
// capacity, dirty bytes never exceed the limit after a write returns, a
// resident page is served without disk traffic, and the disk-backed store
// agrees with the flat memory store on sizes and EOF behaviour.

func TestQuickCacheCapacityInvariant(t *testing.T) {
	f := func(ops []uint32) bool {
		ok := true
		sim := des.New()
		arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
		pc := NewPageCache(arr, PageCacheConfig{
			CapacityBytes: 2 << 20, PageSize: 64 << 10, DirtyLimitBytes: 512 << 10,
		})
		sim.Spawn("ops", func(p *des.Proc) {
			for _, op := range ops {
				id := FileID(op%3 + 1)
				off := int64(op%97) * 64 << 10
				n := int(op%5+1) * 32 << 10
				if op%2 == 0 {
					pc.Read(p, id, off, n)
				} else {
					pc.Write(p, id, off, n)
				}
				if pc.CachedBytes() > pc.Config().CapacityBytes+int64(pc.Config().PageSize) {
					ok = false
					return
				}
				if pc.dirty > pc.Config().DirtyLimitBytes {
					ok = false
					return
				}
			}
		})
		sim.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResidentPageCostsNoDisk: what the cache holds costs no disk byte and
// no virtual time — a re-read of resident pages, and an unstable write that
// fits under the capacity and the dirty limit — and a write past the dirty
// limit writes back exactly the oldest dirty pages.
func TestResidentPageCostsNoDisk(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
	pc := NewPageCache(arr, PageCacheConfig{CapacityBytes: 64 << 20, PageSize: 64 << 10, DirtyLimitBytes: 1 << 20})
	sim.Spawn("io", func(p *des.Proc) {
		pc.Read(p, 1, 0, 1<<20)
		before := arr.BytesRead
		pc.Read(p, 1, 0, 1<<20)
		if arr.BytesRead != before {
			t.Errorf("resident re-read touched the disks (%d extra bytes)", arr.BytesRead-before)
		}
		at := p.Now()
		pc.Write(p, 2, 0, 1<<20) // 16 pages, up to the dirty limit
		if arr.BytesWritten != 0 || p.Now() != at {
			t.Errorf("absorbed write moved %d bytes to the disks and took %v", arr.BytesWritten, p.Now()-at)
		}
		pc.Write(p, 3, 0, 256<<10) // 4 pages past it
		if arr.BytesWritten != 256<<10 {
			t.Errorf("write past the dirty limit wrote back %d bytes, want the 4 pages over it", arr.BytesWritten)
		}
		for i := int64(0); i < 16; i++ {
			if dirty := pc.pages[pageKey{2, i}].dirty; dirty != (i >= 4) {
				t.Errorf("page %d of the first file: dirty=%v; the writeback takes the 4 oldest", i, dirty)
			}
		}
	})
	sim.Run()
}

// holds reports whether the cache serves a DiskStore call from memory: a
// read whose pages are all cached, or an unstable write whose new pages fit
// without an eviction and whose dirtied pages stay within the dirty limit.
// A stable write never is: it commits what it dirtied.
func holds(c *PageCache, id FileID, size, off int64, n int, write, stable bool) bool {
	if !write {
		if off >= size {
			return true
		}
		n = int(min(int64(n), size-off))
	} else if stable {
		return false
	}
	ps := int64(c.cfg.PageSize)
	missing, dirtied := 0, int64(0)
	for pg := off / ps; pg <= (off+int64(n)-1)/ps; pg++ {
		p, ok := c.pages[pageKey{id, pg}]
		if !ok {
			missing++
		}
		if !ok || !p.dirty {
			dirtied += ps
		}
	}
	if !write {
		return missing == 0
	}
	return len(c.pages)+missing <= c.capacityPages() && c.dirty+dirtied <= c.cfg.DirtyLimitBytes
}

// TestQuickResidentCallsCostNoDisk: a DiskStore call the page cache holds
// moves no disk byte and takes no virtual time. One cache throttles writers
// before it fills, the other lets dirty pages fill it, so that an eviction
// writes back.
func TestQuickResidentCallsCostNoDisk(t *testing.T) {
	for _, cfg := range []PageCacheConfig{
		{CapacityBytes: 2 << 20, PageSize: 64 << 10, DirtyLimitBytes: 512 << 10},
		{CapacityBytes: 1 << 20, PageSize: 64 << 10, DirtyLimitBytes: 1 << 20},
	} {
		f := func(ops []uint32) bool {
			ok := true
			sim := des.New()
			arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
			pc := NewPageCache(arr, cfg)
			ds := NewDiskStore(pc)
			sim.Spawn("ops", func(p *des.Proc) {
				for _, op := range ops {
					id := FileID(op%3 + 1)
					off := int64(op%37) * 32 << 10
					n := int(op%5+1) * 32 << 10
					const size = 4 << 20
					kind := op / 7 % 3
					write, stable := kind != 0, kind == 2
					resident := holds(pc, id, size, off, n, write, stable)
					before, at := arr.BytesRead+arr.BytesWritten, p.Now()
					o := Op{arg: p}
					if write {
						ds.WriteThen(&o, id, off, n, nil, stable, resume)
					} else {
						ds.ReadThen(&o, id, size, off, n, nil, resume)
					}
					p.Suspend()
					if resident && (arr.BytesRead+arr.BytesWritten != before || p.Now() != at) {
						ok = false
						return
					}
				}
			})
			sim.Run()
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

// TestQuickDiskStoreMatchesMemStoreSemantics drives the same random op
// sequence through a MemStore-backed namespace and a DiskStore-backed one
// and checks that sizes, read counts and EOF flags agree (the disk layer
// changes timing, never semantics).
func TestQuickDiskStoreMatchesMemStoreSemantics(t *testing.T) {
	type op struct {
		Write bool
		Off   uint16
		N     uint16
	}
	f := func(ops []op) bool {
		ok := true
		sim := des.New()
		mem := NewNamespace(sim, NewMemStore(false), 1<<40)
		arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
		disk := NewNamespace(sim, NewDiskStore(NewPageCache(arr, PageCacheConfig{CapacityBytes: 1 << 20})), 1<<40)
		sim.Spawn("ops", func(p *des.Proc) {
			mID, _, _ := mem.Create(p, mem.Root(), "f", 0644)
			dID, _, _ := disk.Create(p, disk.Root(), "f", 0644)
			for _, o := range ops {
				off, n := int64(o.Off), int(o.N)+1
				if o.Write {
					mn, merr := fsWrite(p, mem, mID, off, n, nil, false)
					dn, derr := fsWrite(p, disk, dID, off, n, nil, false)
					if mn != dn || (merr == nil) != (derr == nil) {
						ok = false
						return
					}
				} else {
					mn, meof, merr := fsRead(p, mem, mID, off, n, nil)
					dn, deof, derr := fsRead(p, disk, dID, off, n, nil)
					if mn != dn || meof != deof || (merr == nil) != (derr == nil) {
						ok = false
						return
					}
				}
			}
			ma, _ := mem.GetAttr(p, mID)
			da, _ := disk.GetAttr(p, dID)
			if ma.Size != da.Size {
				ok = false
			}
		})
		sim.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowDiskDegradesGracefully(t *testing.T) {
	// Failure-injection-style check: a crippled array (one disk at 1 MB/s)
	// slows reads proportionally but never wedges or corrupts accounting.
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{Disks: 1, DiskBandwidth: 1e6})
	pc := NewPageCache(arr, PageCacheConfig{CapacityBytes: 1 << 20, PageSize: 64 << 10})
	var elapsed des.Time
	sim.Spawn("io", func(p *des.Proc) {
		start := p.Now()
		pc.Read(p, 1, 0, 8<<20)
		elapsed = p.Now() - start
	})
	sim.Run()
	// 8 MiB at 1 MB/s ≥ 8 seconds of simulated time.
	if elapsed.Seconds() < 8 {
		t.Fatalf("slow disk finished in %v, expected >= 8s", elapsed)
	}
}
