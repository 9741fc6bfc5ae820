package vfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
)

func memFS(sim *des.Sim) *Namespace {
	return NewNamespace(sim, NewMemStore(true), 1<<40)
}

// fsRead, fsWrite and fsCommit make the FS data calls on p.
func fsRead(p *des.Proc, fs FS, id FileID, off int64, count int, dst []byte) (int, bool, error) {
	var op Op
	fs.ReadThen(&op, id, off, count, dst, des.Resumer, p)
	p.Suspend()
	return op.N, op.EOF, op.Err
}

func fsWrite(p *des.Proc, fs FS, id FileID, off int64, count int, data []byte, stable bool) (int, error) {
	var op Op
	fs.WriteThen(&op, id, off, count, data, stable, des.Resumer, p)
	p.Suspend()
	return op.N, op.Err
}

func fsCommit(p *des.Proc, fs FS, id FileID, off int64, count int) error {
	var op Op
	fs.CommitThen(&op, id, off, count, des.Resumer, p)
	p.Suspend()
	return op.Err
}

// diskRead is a striped read of n bytes at off on p.
func diskRead(p *des.Proc, a *DiskArray, off int64, n int) {
	var op Op
	op.arg = p
	a.readThen(&op, off, n, resume)
	p.Suspend()
}

// inProc runs fn inside a simulation process and completes the sim.
func inProc(t *testing.T, fn func(sim *des.Sim, p *des.Proc)) {
	t.Helper()
	sim := des.New()
	sim.Spawn("test", func(p *des.Proc) { fn(sim, p) })
	sim.Run()
}

func TestCreateLookupReadWrite(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		id, attr, err := fs.Create(p, fs.Root(), "hello.txt", 0644)
		if err != nil {
			t.Fatal(err)
		}
		if attr.Type != TypeReg || attr.Size != 0 {
			t.Fatalf("attr = %+v", attr)
		}
		data := []byte("the quick brown fox")
		if _, err := fsWrite(p, fs, id, 0, len(data), data, false); err != nil {
			t.Fatal(err)
		}
		got, gotAttr, err := fs.Lookup(p, fs.Root(), "hello.txt")
		if err != nil || got != id {
			t.Fatalf("lookup: %v %v", got, err)
		}
		if gotAttr.Size != int64(len(data)) {
			t.Fatalf("size = %d", gotAttr.Size)
		}
		buf := make([]byte, 64)
		n, eof, err := fsRead(p, fs, id, 0, 64, buf)
		if err != nil || !eof || n != len(data) {
			t.Fatalf("read: n=%d eof=%v err=%v", n, eof, err)
		}
		if string(buf[:n]) != string(data) {
			t.Fatalf("data = %q", buf[:n])
		}
	})
}

func TestSparseWriteReadsZeros(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		id, _, _ := fs.Create(p, fs.Root(), "sparse", 0644)
		if _, err := fsWrite(p, fs, id, 1000, 4, []byte("tail"), false); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		n, _, err := fsRead(p, fs, id, 0, 8, buf)
		if err != nil || n != 8 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("hole byte %d = %d", i, b)
			}
		}
	})
}

func TestDirectoryLifecycle(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		d1, _, err := fs.Mkdir(p, fs.Root(), "a", 0755)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Mkdir(p, fs.Root(), "a", 0755); !errors.Is(err, ErrExist) {
			t.Fatalf("dup mkdir: %v", err)
		}
		if _, _, err := fs.Create(p, d1, "f", 0644); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rmdir(p, fs.Root(), "a"); !errors.Is(err, ErrNotEmpty) {
			t.Fatalf("rmdir non-empty: %v", err)
		}
		if err := fs.Remove(p, d1, "f"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rmdir(p, fs.Root(), "a"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Lookup(p, fs.Root(), "a"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("lookup after rmdir: %v", err)
		}
	})
}

func TestRemoveIsDirMismatch(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		fs.Mkdir(p, fs.Root(), "d", 0755)
		fs.Create(p, fs.Root(), "f", 0644)
		if err := fs.Remove(p, fs.Root(), "d"); !errors.Is(err, ErrIsDir) {
			t.Fatalf("remove dir: %v", err)
		}
		if err := fs.Rmdir(p, fs.Root(), "f"); !errors.Is(err, ErrNotDir) {
			t.Fatalf("rmdir file: %v", err)
		}
	})
}

func TestSymlink(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		id, attr, err := fs.Symlink(p, fs.Root(), "ln", "/target/path")
		if err != nil {
			t.Fatal(err)
		}
		if attr.Type != TypeLnk {
			t.Fatalf("type = %v", attr.Type)
		}
		target, err := fs.ReadLink(p, id)
		if err != nil || target != "/target/path" {
			t.Fatalf("readlink: %q %v", target, err)
		}
		fid, _, _ := fs.Create(p, fs.Root(), "file", 0644)
		if _, err := fs.ReadLink(p, fid); !errors.Is(err, ErrInval) {
			t.Fatalf("readlink on file: %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		id, _, _ := fs.Create(p, fs.Root(), "old", 0644)
		d, _, _ := fs.Mkdir(p, fs.Root(), "dir", 0755)
		if err := fs.Rename(p, fs.Root(), "old", d, "new"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Lookup(p, fs.Root(), "old"); !errors.Is(err, ErrNotExist) {
			t.Fatal("old name still present")
		}
		got, _, err := fs.Lookup(p, d, "new")
		if err != nil || got != id {
			t.Fatalf("lookup new: %v %v", got, err)
		}
		// Rename over an existing file replaces it.
		fs.Create(p, fs.Root(), "victim", 0644)
		fs.Create(p, fs.Root(), "src", 0644)
		if err := fs.Rename(p, fs.Root(), "src", fs.Root(), "victim"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHardLink(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		id, _, _ := fs.Create(p, fs.Root(), "f", 0644)
		attr, err := fs.Link(p, id, fs.Root(), "f2")
		if err != nil || attr.Nlink != 2 {
			t.Fatalf("link: %+v %v", attr, err)
		}
		fsWrite(p, fs, id, 0, 3, []byte("abc"), false)
		id2, _, _ := fs.Lookup(p, fs.Root(), "f2")
		buf := make([]byte, 3)
		fsRead(p, fs, id2, 0, 3, buf)
		if string(buf) != "abc" {
			t.Fatalf("link content = %q", buf)
		}
		// Removing one name keeps the data alive.
		fs.Remove(p, fs.Root(), "f")
		if _, _, err := fsRead(p, fs, id2, 0, 3, buf); err != nil {
			t.Fatal(err)
		}
		fs.Remove(p, fs.Root(), "f2")
		if _, err := fs.GetAttr(p, id); !errors.Is(err, ErrStale) {
			t.Fatalf("inode should be gone: %v", err)
		}
	})
}

func TestReadDirPagination(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		for i := 0; i < 25; i++ {
			fs.Create(p, fs.Root(), fmt.Sprintf("f%02d", i), 0644)
		}
		var all []string
		var ents []DirEntry
		cookie := int64(0)
		for {
			var eof bool
			var err error
			ents, eof, err = fs.ReadDir(p, fs.Root(), cookie, 10, ents[:0])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				all = append(all, e.Name)
				cookie = e.Cookie
			}
			if eof {
				break
			}
		}
		if len(all) != 25 {
			t.Fatalf("listed %d entries", len(all))
		}
		for i := 1; i < len(all); i++ {
			if all[i] <= all[i-1] {
				t.Fatalf("entries not sorted: %v", all)
			}
		}
	})
}

// TestReadDirIntoReusedSliceAllocatesNothing: in steady state a ReadDir of a
// 32-entry directory into a slice the caller reuses costs no allocation — the
// names are sorted in the namespace's scratch. The pin is the measured count
// plus one, as in TestAllocsPerRPC.
func TestReadDirIntoReusedSliceAllocatesNothing(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		for i := 0; i < 32; i++ {
			fs.Create(p, fs.Root(), fmt.Sprintf("f%02d", i), 0644)
		}
		var ents []DirEntry
		allocs := testing.AllocsPerRun(100, func() {
			ents, _, _ = fs.ReadDir(p, fs.Root(), 0, 0, ents[:0])
		})
		if t.Logf("ReadDir of 32 entries into a reused slice: %.2f allocations", allocs); allocs > 1 {
			t.Errorf("ReadDir of 32 entries into a reused slice: %.2f allocations, pin 1 (measured 0)", allocs)
		}
		if len(ents) != 32 {
			t.Errorf("listed %d entries, want 32", len(ents))
		}
	})
}

func TestTruncateViaSetAttr(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		id, _, _ := fs.Create(p, fs.Root(), "f", 0644)
		fsWrite(p, fs, id, 0, 10, []byte("0123456789"), false)
		size := int64(4)
		attr, err := fs.SetAttr(p, id, SetAttr{Size: &size})
		if err != nil || attr.Size != 4 {
			t.Fatalf("setattr: %+v %v", attr, err)
		}
		buf := make([]byte, 10)
		n, eof, _ := fsRead(p, fs, id, 0, 10, buf)
		if n != 4 || !eof {
			t.Fatalf("read after truncate: n=%d eof=%v", n, eof)
		}
	})
}

func TestNameValidation(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := memFS(sim)
		for _, bad := range []string{"", ".", ".."} {
			if _, _, err := fs.Create(p, fs.Root(), bad, 0644); !errors.Is(err, ErrInval) {
				t.Errorf("create %q: %v", bad, err)
			}
		}
		long := make([]byte, 300)
		for i := range long {
			long[i] = 'x'
		}
		if _, _, err := fs.Create(p, fs.Root(), string(long), 0644); !errors.Is(err, ErrNameTooLong) {
			t.Errorf("long name: %v", err)
		}
	})
}

func TestNoSpace(t *testing.T) {
	inProc(t, func(sim *des.Sim, p *des.Proc) {
		fs := NewNamespace(sim, NewMemStore(true), 1000)
		id, _, _ := fs.Create(p, fs.Root(), "f", 0644)
		if _, err := fsWrite(p, fs, id, 0, 2000, make([]byte, 2000), false); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("want ENOSPC, got %v", err)
		}
	})
}

// TestQuickReadAfterWrite drives random writes then verifies reads against
// a reference model.
func TestQuickReadAfterWrite(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		okResult := true
		inProc(t, func(sim *des.Sim, p *des.Proc) {
			fs := memFS(sim)
			id, _, _ := fs.Create(p, fs.Root(), "f", 0644)
			ref := make([]byte, 0)
			for _, o := range ops {
				if len(o.Data) == 0 {
					continue
				}
				off := int64(o.Off)
				fsWrite(p, fs, id, off, len(o.Data), o.Data, false)
				end := off + int64(len(o.Data))
				if int64(len(ref)) < end {
					grown := make([]byte, end)
					copy(grown, ref)
					ref = grown
				}
				copy(ref[off:end], o.Data)
			}
			buf := make([]byte, len(ref))
			n, _, err := fsRead(p, fs, id, 0, len(ref), buf)
			if err != nil || n != len(ref) {
				okResult = false
				return
			}
			for i := range ref {
				if buf[i] != ref[i] {
					okResult = false
					return
				}
			}
		})
		return okResult
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskArrayParallelStripes(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{Disks: 8, StripeSize: 64 << 10, DiskBandwidth: 30e6})
	var big, small des.Time
	sim.Spawn("io", func(p *des.Proc) {
		start := p.Now()
		diskRead(p, arr, 0, 8*64<<10) // spans all 8 disks
		big = des.Time(p.Now() - start)
		start = p.Now()
		diskRead(p, arr, 8*64<<10, 64<<10) // single stripe, sequential continuation on disk 0? (new position)
		small = des.Time(p.Now() - start)
	})
	sim.Run()
	// 512 KiB across 8 disks should take barely longer than 64 KiB on one.
	if big > 2*small {
		t.Fatalf("striped read %v vs single-unit %v: striping not parallel", big, small)
	}
}

// TestXferMatchesProcesses runs one seeded schedule of overlapping striped
// transfers, beside a process that takes one of the disks directly, twice:
// on the array's chains, and on the process per stripe unit they replace
// (its caller waiting for the units in offset order). Every transfer and
// every turn of the other process must end at the same instant and in the
// same place in the event order, which the order of the log shows.
func TestXferMatchesProcesses(t *testing.T) {
	type xfer struct {
		off   int64
		n     int
		yield bool
	}
	rng := des.NewRand(7)
	var work [8][]xfer
	for w := range work {
		for i := 0; i < 40; i++ {
			work[w] = append(work[w], xfer{int64(rng.Intn(64)) * 16 << 10, (1 + rng.Intn(24)) * 16 << 10, rng.Intn(3) == 0})
		}
	}
	run := func(chain bool) []string {
		sim := des.New()
		a := NewDiskArray(sim, "raid", DiskArrayConfig{Disks: 4})
		var log []string
		for w, xs := range work {
			sim.SpawnAt(des.Time(w%3)*des.Time(time.Millisecond), "w", func(p *des.Proc) {
				for i, x := range xs {
					if chain {
						diskRead(p, a, x.off, x.n)
					} else {
						xferByProcesses(a, p, x.off, x.n)
					}
					log = append(log, fmt.Sprintf("%v w%d x%d", p.Now(), w, i))
					if x.yield {
						p.Yield()
					}
				}
			})
		}
		// A second user of disk 0, which queues with the stripe units.
		sim.Spawn("other", func(p *des.Proc) {
			for i := 0; i < 300; i++ {
				a.disks[0].Use(p, 1, des.Duration(64<<10/a.cfg.DiskBandwidth*1e9))
				log = append(log, fmt.Sprintf("%v other %d", p.Now(), i))
			}
		})
		sim.Run()
		return log
	}
	chain, procs := run(true), run(false)
	if len(chain) != len(procs) {
		t.Fatalf("%d log entries on the chains, %d on processes", len(chain), len(procs))
	}
	for i := range procs {
		if chain[i] != procs[i] {
			t.Fatalf("entry %d of the log: chains %q, processes %q", i, chain[i], procs[i])
		}
	}
}

// xferByProcesses is a striped read of n bytes at off as a process per
// stripe unit, the caller waiting for their events one after another.
func xferByProcesses(a *DiskArray, p *des.Proc, off int64, n int) {
	stripe := int64(a.cfg.StripeSize)
	var events []*des.Event
	for pos, remaining := off, n; remaining > 0; {
		unit := int(min(stripe-pos%stripe, int64(remaining)))
		disk, blockPos, ev := int((pos/stripe)%int64(a.cfg.Disks)), pos, des.NewEvent(a.sim)
		events = append(events, ev)
		a.sim.Spawn("stripe-io", func(sp *des.Proc) {
			r := a.disks[disk]
			r.Acquire(sp, 1)
			cost := des.Duration(float64(unit) / a.cfg.DiskBandwidth * 1e9)
			if blockPos < a.lastPos[disk] || blockPos-a.lastPos[disk] > 8<<20 {
				cost += a.cfg.SeekTime
			}
			sp.Sleep(cost)
			a.lastPos[disk] = blockPos + int64(unit)
			r.Release(1)
			ev.Fire(nil)
		})
		pos += int64(unit)
		remaining -= unit
	}
	des.WaitAll(p, events...)
}

func TestDiskArrayAggregateBandwidth(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{Disks: 8, StripeSize: 64 << 10, DiskBandwidth: 30e6})
	const total = 64 << 20
	var elapsed des.Time
	sim.Spawn("io", func(p *des.Proc) {
		start := p.Now()
		diskRead(p, arr, 0, total)
		elapsed = des.Time(p.Now() - start)
	})
	sim.Run()
	mbps := float64(total) / 1e6 / elapsed.Seconds()
	if mbps < 200 || mbps > 245 {
		t.Fatalf("aggregate = %.1f MB/s, want ~240 (8 x 30)", mbps)
	}
}

func TestPageCacheHitsAfterWarm(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
	pc := NewPageCache(arr, PageCacheConfig{CapacityBytes: 16 << 20, PageSize: 64 << 10})
	sim.Spawn("io", func(p *des.Proc) {
		pc.Read(p, 1, 0, 8<<20)
		missesAfterWarm := pc.Misses
		start := p.Now()
		pc.Read(p, 1, 0, 8<<20)
		if pc.Misses != missesAfterWarm {
			t.Errorf("re-read missed %d pages", pc.Misses-missesAfterWarm)
		}
		if p.Now() != start {
			t.Errorf("cached re-read cost %v", p.Now()-start)
		}
	})
	sim.Run()
}

func TestPageCacheLRUScanEviction(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
	// Cache holds 8 MiB; working set is 32 MiB: cyclic sequential re-reads
	// must keep missing (the Fig. 10(a) >3-client regime).
	pc := NewPageCache(arr, PageCacheConfig{CapacityBytes: 8 << 20, PageSize: 64 << 10})
	sim.Spawn("io", func(p *des.Proc) {
		pc.Read(p, 1, 0, 32<<20)
		m1 := pc.Misses
		pc.Read(p, 1, 0, 32<<20)
		if rescanMisses := pc.Misses - m1; rescanMisses < 100 {
			t.Errorf("cyclic scan re-read only missed %d pages; LRU should thrash", rescanMisses)
		}
	})
	sim.Run()
}

func TestPageCacheWritebackBounded(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
	pc := NewPageCache(arr, PageCacheConfig{
		CapacityBytes: 64 << 20, PageSize: 64 << 10, DirtyLimitBytes: 4 << 20,
	})
	sim.Spawn("io", func(p *des.Proc) {
		pc.Write(p, 1, 0, 32<<20)
		if pc.dirty > 4<<20 {
			t.Errorf("dirty bytes = %d exceeds limit", pc.dirty)
		}
		if arr.BytesWritten == 0 {
			t.Error("writeback never reached the disks")
		}
	})
	sim.Run()
}

func TestDiskStoreCommitFlushes(t *testing.T) {
	sim := des.New()
	arr := NewDiskArray(sim, "raid", DiskArrayConfig{})
	pc := NewPageCache(arr, PageCacheConfig{CapacityBytes: 64 << 20, PageSize: 64 << 10})
	store := NewDiskStore(pc)
	fs := NewNamespace(sim, store, 1<<40)
	sim.Spawn("io", func(p *des.Proc) {
		id, _, _ := fs.Create(p, fs.Root(), "f", 0644)
		fsWrite(p, fs, id, 0, 1<<20, nil, false)
		written := arr.BytesWritten
		if err := fsCommit(p, fs, id, 0, 0); err != nil {
			t.Fatal(err)
		}
		if arr.BytesWritten <= written {
			t.Error("commit did not flush dirty pages")
		}
	})
	sim.Run()
}

// TestMemStoreReadTable pins MemStore.ReadThen against the file's content and
// size: bytes below the content's end are the content, bytes between it and
// the size (a hole: the size grew past what was written) are zero, bytes of
// dst beyond what was read are untouched. dst starts as 0xAA so a hole that
// is not cleared shows.
func TestMemStoreReadTable(t *testing.T) {
	content := []byte("0123456789abcdefghij") // 20 bytes
	const id = FileID(7)
	cases := []struct {
		name         string
		truncate     int64 // content is cut here first (< 0: not at all)
		size, off    int64
		count, wantN int
		want         string // the first wantN bytes of dst, '.' = zero
	}{
		{"ends inside content", -1, 20, 5, 10, 10, "56789abcde"},
		{"whole content", -1, 20, 0, 20, 20, "0123456789abcdefghij"},
		{"bounded by size", -1, 20, 15, 10, 5, "fghij"},
		{"straddles content's end", -1, 32, 16, 8, 8, "ghij...."},
		{"starts at content's end", -1, 32, 20, 8, 8, "........"},
		{"starts past content", -1, 64, 40, 8, 8, "........"},
		{"starts at size", -1, 20, 20, 8, 0, ""},
		{"starts past size", -1, 20, 30, 8, 0, ""},
		{"sparse tail after truncate", 8, 24, 4, 12, 12, "4567........"},
		{"truncated to nothing", 0, 16, 0, 4, 4, "...."},
		{"count zero", -1, 20, 3, 0, 0, ""},
	}
	for _, tc := range cases {
		s := NewMemStore(true)
		var op Op
		s.WriteThen(&op, id, 0, len(content), content, false, func(*Op) {})
		if tc.truncate >= 0 {
			s.Truncate(id, tc.truncate)
		}
		dst := make([]byte, tc.count+4)
		for i := range dst {
			dst[i] = 0xAA
		}
		s.ReadThen(&op, id, tc.size, tc.off, tc.count, dst[:tc.count], func(*Op) {})
		n := op.N
		if n != tc.wantN {
			t.Errorf("%s: read %d bytes, want %d", tc.name, n, tc.wantN)
			continue
		}
		got := make([]byte, n)
		for i, b := range dst[:n] {
			if got[i] = b; b == 0 {
				got[i] = '.'
			}
		}
		if string(got) != tc.want {
			t.Errorf("%s: read %q, want %q", tc.name, got, tc.want)
		}
		for i, b := range dst[n:] {
			if b != 0xAA {
				t.Errorf("%s: byte %d past the %d read was overwritten with %#x", tc.name, n+i, n, b)
			}
		}
	}
	// A store that keeps sizes only never touches dst.
	dst := []byte{0xAA, 0xAA}
	var op Op
	NewMemStore(false).ReadThen(&op, id, 8, 0, 2, dst, func(*Op) {})
	if n := op.N; n != 2 || dst[0] != 0xAA || dst[1] != 0xAA {
		t.Errorf("phantom store: n=%d dst=%x, want 2 and dst untouched", n, dst)
	}
}
