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

func TestResidentPageCostsNoDisk(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
	pc := NewPageCache(arr, PageCacheConfig{CapacityBytes: 64 << 20, PageSize: 64 << 10})
	sim.Spawn("io", func(p *des.Proc) {
		pc.Read(p, 1, 0, 1<<20)
		before := arr.BytesRead
		pc.Read(p, 1, 0, 1<<20)
		if arr.BytesRead != before {
			t.Errorf("resident re-read touched the disks (%d extra bytes)", arr.BytesRead-before)
		}
	})
	sim.Run()
}

// TestQuickResidentCallsCostNoDisk: a store call that DiskStore.Resident
// says completes from memory — the server then makes it on the scheduler
// loop, where it cannot wait — moves no disk byte and takes no time. One
// cache throttles writers before it fills, the other lets dirty pages fill
// it, so that an eviction writes back.
func TestQuickResidentCallsCostNoDisk(t *testing.T) {
	for _, cfg := range []PageCacheConfig{
		{CapacityBytes: 2 << 20, PageSize: 64 << 10, DirtyLimitBytes: 512 << 10},
		{CapacityBytes: 1 << 20, PageSize: 64 << 10, DirtyLimitBytes: 1 << 20},
	} {
		f := func(ops []uint32) bool {
			ok := true
			sim := des.New()
			arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
			ds := NewDiskStore(NewPageCache(arr, cfg))
			sim.Spawn("ops", func(p *des.Proc) {
				for _, op := range ops {
					id := FileID(op%3 + 1)
					off := int64(op%37) * 32 << 10
					n := int(op%5+1) * 32 << 10
					const size = 4 << 20
					kind := StoreOp(op / 7 % 3)
					resident := ds.Resident(id, size, off, n, kind)
					before, at := arr.BytesRead+arr.BytesWritten, p.Now()
					switch kind {
					case StoreRead:
						ds.Read(p, id, size, off, n, nil)
					case StoreWrite:
						ds.Write(p, id, off, n, nil, false)
					default:
						ds.Write(p, id, off, n, nil, true)
					}
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
					mn, merr := mem.Write(p, mID, off, n, nil, false)
					dn, derr := disk.Write(p, dID, off, n, nil, false)
					if mn != dn || (merr == nil) != (derr == nil) {
						ok = false
						return
					}
				} else {
					mn, meof, merr := mem.Read(p, mID, off, n, nil)
					dn, deof, derr := disk.Read(p, dID, off, n, nil)
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
