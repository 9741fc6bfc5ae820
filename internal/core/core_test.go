package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/xdr"
)

// TestEndToEndIntegrity writes and reads back a patterned file on every
// configuration of the differential oracle (see diffConfigs).
func TestEndToEndIntegrity(t *testing.T) {
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			cluster := NewCluster(dc.Config)
			cl := cluster.Clients[0]
			cluster.Start("test", func(p *des.Proc) {
				f, err := cl.Create(p, "it.bin")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				const size = 300 << 10
				wbuf := cl.NewMaterializedBuffer(size)
				for i, d := 0, wbuf.Bytes(); i < size; i++ {
					d[i] = byte(i*13 + 7)
				}
				// Write in two records crossing the max-bulk boundary.
				if _, err := f.WriteAt(p, wbuf, 0, 0, 200<<10, false); err != nil {
					t.Errorf("write1: %v", err)
					return
				}
				if _, err := f.WriteAt(p, wbuf, 200<<10, 200<<10, 100<<10, true); err != nil {
					t.Errorf("write2: %v", err)
					return
				}
				if sz, _ := f.Size(p); sz != size {
					t.Errorf("size = %d", sz)
				}
				for _, direct := range []bool{false, true} {
					rbuf := cl.NewMaterializedBuffer(size)
					var got int
					for got < size {
						req := 128 << 10
						if size-got < req {
							req = size - got
						}
						n, eof, err := f.ReadAt(p, rbuf, got, int64(got), req, direct)
						if err != nil {
							t.Errorf("read(direct=%v): %v", direct, err)
							return
						}
						got += n
						if eof {
							break
						}
					}
					if got != size {
						t.Errorf("read %d bytes, want %d", got, size)
						return
					}
					if !bytes.Equal(rbuf.Bytes(), wbuf.Bytes()) {
						t.Errorf("data corrupted (direct=%v)", direct)
						return
					}
				}
			})
			cluster.Run()
		})
	}
}

func TestDirectoryTreeOverCluster(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Cache, CopyData: true,
	})
	cl := cluster.Clients[0]
	cluster.Start("tree", func(p *des.Proc) {
		if err := cl.Mkdir(p, "a"); err != nil {
			t.Errorf("mkdir a: %v", err)
			return
		}
		if err := cl.Mkdir(p, "a/b"); err != nil {
			t.Errorf("mkdir a/b: %v", err)
			return
		}
		f, err := cl.Create(p, "a/b/file.txt")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewMaterializedBuffer(10)
		copy(buf.Bytes(), "hello tree")
		f.WriteAt(p, buf, 0, 0, 10, false)
		g, err := cl.Open(p, "a/b/file.txt")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		rbuf := cl.NewMaterializedBuffer(10)
		n, _, err := g.ReadAt(p, rbuf, 0, 0, 10, false)
		if err != nil || n != 10 || string(rbuf.Bytes()) != "hello tree" {
			t.Errorf("read: n=%d %q %v", n, rbuf.Bytes(), err)
		}
		// READDIR of a large directory exercises the long-reply path over
		// the full stack.
		for i := 0; i < 200; i++ {
			if _, err := cl.Create(p, fmt.Sprintf("a/f%03d", i)); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
		dirFH, _, err := cl.NFS.Lookup(p, cl.Root, "a")
		if err != nil {
			t.Errorf("lookup a: %v", err)
			return
		}
		count := 0
		cookie := uint64(0)
		for {
			res, err := cl.NFS.ReadDir(p, dirFH, cookie, 8192, false)
			if err != nil {
				t.Errorf("readdir: %v", err)
				return
			}
			for _, ent := range res.Entries {
				count++
				cookie = ent.Cookie
			}
			if res.EOF {
				break
			}
		}
		if count != 201 { // 200 files + subdir b
			t.Errorf("listed %d entries, want 201", count)
		}
		if err := cl.Remove(p, "a/b/file.txt"); err != nil {
			t.Errorf("remove: %v", err)
		}
	})
	cluster.Run()
}

// TestReadDirPagesFitCount: a READDIR3resok or READDIRPLUS3resok must fit in
// the count the client asked for (RFC 1813 §3.3.16–17). Over Read-Write,
// whose reply chunk is sized by count, a directory of 40 files with 200-byte
// names listed by cookie comes back in pages that each fit count, every name
// once, and no call times out; a count too small for one entry is answered
// NFS3ERR_TOOSMALL, not with an empty page that is not the end.
func TestReadDirPagesFitCount(t *testing.T) {
	const files = 40
	cluster := NewCluster(Config{
		Profile: profiles.LinuxDDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular,
	})
	cl := cluster.Clients[0]
	cluster.Start("ls", func(p *des.Proc) {
		if err := cl.Mkdir(p, "long"); err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		for i := range files {
			if _, err := cl.Create(p, fmt.Sprintf("long/%03d%s", i, strings.Repeat("n", 197))); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
		dir, _, err := cl.NFS.Lookup(p, cl.Root, "long")
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		for _, tc := range []struct {
			count uint32
			plus  bool
		}{{1024, false}, {8192, true}} {
			seen := map[string]int{}
			for cookie, eof := uint64(0), false; !eof; {
				res, err := cl.NFS.ReadDir(p, dir, cookie, tc.count, tc.plus)
				if err != nil {
					t.Errorf("count %d, plus %v: cookie %d: %v", tc.count, tc.plus, cookie, err)
					return
				}
				var e xdr.Encoder
				c := xdr.EncodeTo(&e)
				res.XDR(&c)
				if e.Len() > int(tc.count) {
					t.Errorf("count %d, plus %v: a %d-byte page", tc.count, tc.plus, e.Len())
				}
				if len(res.Entries) == 0 && !res.EOF {
					t.Errorf("count %d, plus %v: an empty page before the end", tc.count, tc.plus)
					return
				}
				for _, ent := range res.Entries {
					seen[ent.Name]++
					cookie = ent.Cookie
				}
				eof = res.EOF
			}
			if len(seen) != files {
				t.Errorf("count %d, plus %v: listed %d names, want %d", tc.count, tc.plus, len(seen), files)
			}
			for name, n := range seen {
				if n != 1 {
					t.Errorf("count %d, plus %v: %.8s… listed %d times", tc.count, tc.plus, name, n)
				}
			}
		}
		var se *nfs3.StatusError
		if _, err := cl.NFS.ReadDir(p, dir, 0, 256, false); !errors.As(err, &se) || se.Status != nfs3.ErrTooSmall {
			t.Errorf("count 256: %v, want NFS3ERR_TOOSMALL", err)
		}
	})
	cluster.Run()
	if timeouts, _ := cl.TransportStats(); timeouts != 0 {
		t.Errorf("%d calls timed out", timeouts)
	}
}

// TestReadDirEntriesAreTheCallers: the NFS client and server keep the lists a
// listing is built and decoded in, and none of them may leak into what a
// call returns. Two processes on one client each have a READDIRPLUS of a
// different 32-entry directory in flight at once over Read-Read (long
// replies, pulled), and each gets its own directory's entries; a READDIR
// after both leaves what the first returned as it was.
func TestReadDirEntriesAreTheCallers(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxDDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadRead, RegMode: memreg.Regular,
	})
	cl := cluster.Clients[0]
	var got [2][]nfs3.DirEntry3
	var start, end [2]des.Time
	cluster.Start("ls", func(p *des.Proc) {
		var dirs [2]nfs3.FH
		for d, name := range []string{"a", "b"} {
			if err := cl.Mkdir(p, name); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
			for i := range 32 {
				if _, err := cl.Create(p, fmt.Sprintf("%s/%s%02d", name, name, i)); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
			dirs[d], _, _ = cl.NFS.Lookup(p, cl.Root, name)
		}
		done := [2]*des.Event{des.NewEvent(cluster.Sim), des.NewEvent(cluster.Sim)}
		for d := range dirs {
			cluster.Sim.Spawn("ls"+fmt.Sprint(d), func(p *des.Proc) {
				start[d] = p.Now()
				res, err := cl.NFS.ReadDir(p, dirs[d], 0, 8192, true)
				if err != nil {
					t.Errorf("dir %d: %v", d, err)
				}
				got[d], end[d] = res.Entries, p.Now()
				done[d].Fire(nil)
			})
		}
		des.WaitAll(p, done[:]...)
		first := slices.Clone(got[0])
		if _, err := cl.NFS.ReadDir(p, dirs[1], 0, 8192, false); err != nil {
			t.Errorf("second READDIR: %v", err)
		}
		if !reflect.DeepEqual(got[0], first) {
			t.Error("a second READDIR changed the entries the first returned")
		}
	})
	cluster.Run()
	if start[1] >= end[0] || start[0] >= end[1] {
		t.Errorf("the listings ran at [%d, %d] and [%d, %d], not at once", start[0], end[0], start[1], end[1])
	}
	for d, name := range []string{"a", "b"} {
		if len(got[d]) != 32 {
			t.Errorf("dir %s: %d entries, want 32", name, len(got[d]))
		}
		for i, e := range got[d] {
			if want := fmt.Sprintf("%s%02d", name, i); e.Name != want || !e.FHPresent {
				t.Errorf("dir %s: entry %d is %q (handle %v), want %q with its handle", name, i, e.Name, e.FHPresent, want)
			}
		}
	}
}

func TestMultipleClientsShareNamespace(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular,
		Clients: 3, CopyData: true,
	})
	cluster.Start("writer", func(p *des.Proc) {
		cl := cluster.Clients[0]
		f, err := cl.Create(p, "shared.dat")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewMaterializedBuffer(4096)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = 0xAB
		}
		f.WriteAt(p, buf, 0, 0, 4096, true)
		// Other clients read it back.
		for _, other := range cluster.Clients[1:] {
			g, err := other.Open(p, "shared.dat")
			if err != nil {
				t.Errorf("open from client: %v", err)
				return
			}
			rbuf := other.NewMaterializedBuffer(4096)
			n, _, err := g.ReadAt(p, rbuf, 0, 0, 4096, false)
			if err != nil || n != 4096 {
				t.Errorf("cross-client read: n=%d %v", n, err)
				return
			}
			if rbuf.Bytes()[100] != 0xAB {
				t.Error("cross-client data mismatch")
			}
		}
	})
	cluster.Run()
}

func TestDiskBackendEndToEnd(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxDDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.AllPhysical,
		Backend: BackendDisk, PageCacheBytes: 32 << 20,
	})
	cl := cluster.Clients[0]
	cluster.Start("disk", func(p *des.Proc) {
		f, err := cl.Create(p, "big.dat")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewBuffer(1 << 20)
		const size = 64 << 20
		for off := int64(0); off < size; off += 1 << 20 {
			if _, err := f.WriteAt(p, buf, 0, off, 1<<20, false); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		if err := f.Commit(p); err != nil {
			t.Errorf("commit: %v", err)
		}
		start := p.Now()
		for off := int64(0); off < size; off += 1 << 20 {
			if _, _, err := f.ReadAt(p, buf, 0, off, 1<<20, true); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
		if p.Now() == start {
			t.Error("disk-backed read took no simulated time")
		}
		if cluster.Server.Disk.BytesWritten == 0 {
			t.Error("nothing reached the disks")
		}
		// Working set (64 MiB) exceeds the cache (32 MiB): must miss.
		if cluster.Server.Cache.Misses == 0 {
			t.Error("expected cache misses with oversubscribed working set")
		}
	})
	cluster.Run()
}

// TestSecurityPostureByDesign asserts the §4 exposure claims at cluster
// level: Read-Write never exposes server memory; Read-Read does.
func TestSecurityPostureByDesign(t *testing.T) {
	run := func(design rpcrdma.Design) (exposedNow int64, exposedEver int64) {
		cluster := NewCluster(Config{
			Profile: profiles.SolarisSDR(), Transport: TransportRDMA,
			Design: design, RegMode: memreg.Regular, CopyData: true,
		})
		cl := cluster.Clients[0]
		cluster.Start("io", func(p *des.Proc) {
			f, _ := cl.Create(p, "x")
			buf := cl.NewBuffer(128 << 10)
			f.WriteAt(p, buf, 0, 0, 128<<10, false)
			for i := 0; i < 4; i++ {
				f.ReadAt(p, buf, 0, 0, 128<<10, false)
			}
			exposedNow = cluster.Server.Node.HCA.RemoteExposedBytes()
			exposedEver = cluster.Server.Node.HCA.RemoteExposedEver()
		})
		cluster.Run()
		return
	}
	if _, ever := run(rpcrdma.ReadWrite); ever != 0 {
		t.Errorf("read-write design exposed server MRs %d times", ever)
	}
	if _, ever := run(rpcrdma.ReadRead); ever == 0 {
		t.Error("read-read design should expose server MRs")
	}
}
