package core

import (
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/trace"
)

// TestAllocsPerRPC pins what one simulated RPC costs the host in heap
// allocations: one client, one call outstanding, tracing off; per design an
// NFS NULL (two Sends), an 8 KiB direct READ and a 128 KiB direct UNSTABLE
// WRITE under dynamic registration (the WRITE is the Fig. 5 point's, and
// goes through the replay cache), a 64 KiB buffered READ under
// all-physical registration (the fan-in workloads' call: multi-segment chunk
// lists, client staging) and a READDIRPLUS of 32 entries (meta_mix's long
// reply, pulled under Read-Read; 32 allocations are the names the client
// decodes); then a NULL and that READ on fanin_mux_telemetry's
// server (8 shards, multiplexed, completion affinity, Reply-Fetch). The benchmark reports the same count
// per workload (host_allocs_per_rpc); this fails in under a second when a
// change to the message path adds an allocation, instead of ten minutes
// later. The pins are the measured counts plus one, rounded up.
//
// A design over a pin is measured again with every allocation profiled, and
// the sites are logged as file:line and allocations per RPC, so the failure
// names the line that allocates; -v logs them for every design.
func TestAllocsPerRPC(t *testing.T) {
	pins := []struct {
		design                                   rpcrdma.Design
		null, read, write, physRead, readDirPlus float64
	}{
		{rpcrdma.ReadWrite, 2, 5, 7, 6, 41},    // measured 1.00, 4.00, 5.43, 4.25 and 39.07
		{rpcrdma.ReadRead, 6, 8, 10, 10, 43},   // 4.24, 6.25, 8.63, 8.18 and 41.28
		{rpcrdma.ReplyFetch, 6, 9, 11, 10, 40}, // 5.00, 8.00, 9.43, 8.66 and 38.07
	}
	for _, pin := range pins {
		regular := Config{Design: pin.design, RegMode: memreg.Regular}
		physical := Config{Design: pin.design, RegMode: memreg.AllPhysical}
		null, read := allocsPerRPC(t, regular, "direct READ", 8<<10, false)
		_, write := allocsPerRPC(t, regular, "WRITE", 128<<10, false)
		_, physRead := allocsPerRPC(t, physical, "READ", 64<<10, false)
		_, readDirPlus := allocsPerRPC(t, regular, "READDIRPLUS", 0, false)
		t.Logf("%v: %.2f allocs per NULL, %.2f per 8 KiB direct READ, %.2f per 128 KiB direct WRITE, %.2f per all-physical 64 KiB buffered READ, %.2f per READDIRPLUS of 32",
			pin.design, null, read, write, physRead, readDirPlus)
		over := null > pin.null || read > pin.read || write > pin.write || physRead > pin.physRead || readDirPlus > pin.readDirPlus
		if over {
			t.Errorf("%v: %.2f allocs per NULL (pin %.0f), %.2f per 8 KiB READ (pin %.0f), %.2f per 128 KiB WRITE (pin %.0f), %.2f per all-physical 64 KiB READ (pin %.0f), %.2f per READDIRPLUS of 32 (pin %.0f)",
				pin.design, null, pin.null, read, pin.read, write, pin.write, physRead, pin.physRead, readDirPlus, pin.readDirPlus)
		}
		if over || testing.Verbose() {
			allocsPerRPC(t, regular, "direct READ", 8<<10, true)
			allocsPerRPC(t, regular, "WRITE", 128<<10, true)
			allocsPerRPC(t, physical, "READ", 64<<10, true)
			allocsPerRPC(t, regular, "READDIRPLUS", 0, true)
		}
	}
	fanIn := Config{Design: rpcrdma.ReplyFetch, RegMode: memreg.AllPhysical, ServerShards: 8, Multiplex: true, Affinity: true}
	const fanInNull, fanInRead = 6, 10 // measured 5.00 and 8.66
	null, read := allocsPerRPC(t, fanIn, "READ", 64<<10, false)
	t.Logf("fan-in (%v, 8 shards, multiplexed, affinity): %.2f allocs per NULL, %.2f per all-physical 64 KiB buffered READ", fanIn.Design, null, read)
	over := null > fanInNull || read > fanInRead
	if over {
		t.Errorf("fan-in: %.2f allocs per NULL (pin %d), %.2f per all-physical 64 KiB READ (pin %d)", null, fanInNull, read, fanInRead)
	}
	if over || testing.Verbose() {
		allocsPerRPC(t, fanIn, "READ", 64<<10, true)
	}
}

// TestProcessesPerRPC pins what one simulated RPC costs the kernel in
// processes: spawns and parks per steady-state call, one client, one call
// outstanding, counted from the tracer's spawn instants and blocked spans as
// the benchmark's des.spawns_per_rpc and des.parks_per_rpc are; per design a
// NULL, on Read-Write a 128 KiB direct READ and WRITE under dynamic
// registration (the Fig. 5 point), and on Read-Read an 8 KiB direct READ
// (its reply's pull reads one chunk) and a READDIRPLUS of 32 entries (a long
// reply, pulled at position 0); and on the RAID-0 back end (Read-Write) the
// FILE_SYNC WRITE, which the disk must take, and a READ that misses the page
// cache. Everything on the RPC path that waits only for hardware — the disk
// array included —, time, a FIFO resource or a CPU is a chain of callbacks
// (DESIGN.md §5.1), so the caller parks once, for its reply, and nothing
// spawns. A park that comes back here is a regression; the failure names
// the processes that parked. The pins are exact.
func TestProcessesPerRPC(t *testing.T) {
	for _, pin := range []struct {
		backend       Backend
		design        rpcrdma.Design
		op            string
		size          int
		spawns, parks float64
	}{
		{BackendTmpfs, rpcrdma.ReadWrite, "null", 0, 0, 1},
		{BackendTmpfs, rpcrdma.ReadRead, "null", 0, 0, 1},
		{BackendTmpfs, rpcrdma.ReplyFetch, "null", 0, 0, 1},
		{BackendTmpfs, rpcrdma.ReadWrite, "read", 128 << 10, 0, 1},
		{BackendTmpfs, rpcrdma.ReadWrite, "write", 128 << 10, 0, 1},
		{BackendTmpfs, rpcrdma.ReadRead, "read", 8 << 10, 0, 1},
		{BackendTmpfs, rpcrdma.ReadRead, "readdirplus", 0, 0, 1},
		{BackendDisk, rpcrdma.ReadWrite, "write", 128 << 10, 0, 1},
		{BackendDisk, rpcrdma.ReadWrite, "read", 128 << 10, 0, 1},
	} {
		spawns, parks, byProc := processesPerRPC(t, pin.backend, pin.design, pin.op, pin.size)
		t.Logf("%v %v %s: %.2f spawns and %.2f parks per RPC", pin.backend, pin.design, pin.op, spawns, parks)
		if spawns != pin.spawns || parks != pin.parks {
			names := make([]string, 0, len(byProc))
			for name := range byProc {
				names = append(names, name)
			}
			sort.Strings(names)
			var by strings.Builder
			for _, name := range names {
				fmt.Fprintf(&by, " %s %.3f", name, byProc[name])
			}
			t.Errorf("%v %v %s: %.2f spawns and %.2f parks per RPC, pinned at %.0f and %.0f; parks per RPC by process:%s",
				pin.backend, pin.design, pin.op, spawns, parks, pin.spawns, pin.parks, by.String())
		}
	}
}

// processesPerRPC counts spawns and parks per RPC on a one-client cluster
// over backend, and parks per RPC by the name of the process that parked: op
// is "null", "read" or "write" of size bytes, direct, under dynamic
// registration, or "readdirplus" of a directory of 32 files. On the disk
// back end each read is stride bytes past the last, beyond its readahead, so
// that every one misses the page cache.
func processesPerRPC(t *testing.T, backend Backend, design rpcrdma.Design, op string, size int) (spawns, parks float64, byProc map[string]float64) {
	const calls, files, stride = 200, 32, 4 << 20
	cluster := NewCluster(Config{
		Profile:   profiles.LinuxDDR(),
		Transport: TransportRDMA,
		Design:    design,
		RegMode:   memreg.Regular,
		Backend:   backend,
	})
	tr := cluster.EnableTracing(1 << 18)
	cl := cluster.Clients[0]
	var from, to int
	cluster.Start("pin", func(p *des.Proc) {
		f, err := cl.Create(p, "pin.bin")
		if err != nil {
			t.Errorf("%v: create: %v", design, err)
			return
		}
		if err := cl.Mkdir(p, "pin"); err != nil {
			t.Errorf("%v: mkdir: %v", design, err)
			return
		}
		for i := 0; i < files; i++ {
			if _, err := cl.Create(p, fmt.Sprintf("pin/f%02d", i)); err != nil {
				t.Errorf("%v: create: %v", design, err)
				return
			}
		}
		dir, _, err := cl.NFS.Lookup(p, cl.Root, "pin")
		if err != nil {
			t.Errorf("%v: lookup: %v", design, err)
			return
		}
		buf := cl.NewBuffer(max(size, 1))
		var off, end int64 // where the next read is, and the file's last byte
		if backend == BackendDisk {
			end = 2 * calls * stride
		}
		call := func() error {
			switch op {
			case "read":
				n, _, err := f.ReadAt(p, buf, 0, off, size, true)
				if err == nil && n != size {
					err = fmt.Errorf("READ at %d returned %d of %d bytes", off, n, size)
				}
				if backend == BackendDisk {
					off += stride
				}
				return err
			case "write":
				_, err := f.WriteAt(p, buf, 0, 0, size, true)
				return err
			case "readdirplus":
				rd, err := cl.NFS.ReadDir(p, dir, 0, 8192, true)
				if err == nil && len(rd.Entries) < files {
					err = fmt.Errorf("READDIRPLUS returned %d of %d entries", len(rd.Entries), files)
				}
				return err
			}
			return cl.NFS.Null(p)
		}
		if _, err := f.WriteAt(p, buf, 0, end, size, true); err != nil {
			t.Errorf("%v: write: %v", design, err)
			return
		}
		for i := 0; i < 2*calls; i++ {
			if i == calls { // the first half reaches the steady state
				from = tr.Len()
			}
			if err := call(); err != nil {
				t.Errorf("%v %s: %v", design, op, err)
				return
			}
		}
		to = tr.Len()
	})
	cluster.Run()
	if tr.Dropped() != 0 {
		t.Fatalf("%v: the trace ring wrapped", design)
	}
	var n [2]int
	byProc = map[string]float64{}
	for _, e := range tr.Events()[from:to] {
		switch e.Kind {
		case trace.KindSpawn:
			n[0]++
		case trace.KindBlocked:
			n[1]++
			byProc[e.Track] += 1.0 / calls
		}
	}
	return float64(n[0]) / calls, float64(n[1]) / calls, byProc
}

// allocsPerRPC measures heap allocations per NULL and per op of size bytes on
// a one-client LinuxDDR RDMA cluster configured as cfg: op is "READ",
// "direct READ" or "WRITE" (UNSTABLE), or "READDIRPLUS" of a directory of 32
// files. With sites set it profiles every allocation and logs where those of
// the measured calls were made.
func allocsPerRPC(t *testing.T, cfg Config, op string, size int, sites bool) (null, call float64) {
	const calls = 500
	if sites {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
	}
	cfg.Profile, cfg.Transport = profiles.LinuxDDR(), TransportRDMA
	design, label := cfg.Design, fmt.Sprintf("%v, %v", cfg.Design, cfg.RegMode)
	if cfg.Multiplex {
		label += ", multiplexed"
	}
	cluster := NewCluster(cfg)
	cl := cluster.Clients[0]
	cluster.Start("pin", func(p *des.Proc) {
		f, err := cl.Create(p, "pin.bin")
		if err != nil {
			t.Errorf("%v: create: %v", design, err)
			return
		}
		buf := cl.NewBuffer(max(size, 1))
		if _, err := f.WriteAt(p, buf, 0, 0, size, true); err != nil {
			t.Errorf("%v: write: %v", design, err)
			return
		}
		var dir nfs3.FH
		if op == "READDIRPLUS" {
			if err := cl.Mkdir(p, "pin"); err != nil {
				t.Errorf("%v: mkdir: %v", design, err)
				return
			}
			for i := range 32 {
				if _, err := cl.Create(p, fmt.Sprintf("pin/f%02d", i)); err != nil {
					t.Errorf("%v: create: %v", design, err)
					return
				}
			}
			dir, _, _ = cl.NFS.Lookup(p, cl.Root, "pin")
		}
		perCall := func(what string, call func() error) float64 {
			var before, after runtime.MemStats
			var sitesBefore map[string]int64
			for i := 0; i < 2*calls; i++ {
				if i == calls { // the first half fills rings, free lists and caches
					if sites {
						sitesBefore = allocSites()
					}
					runtime.ReadMemStats(&before)
				}
				if err := call(); err != nil {
					t.Errorf("%v: %v", design, err)
					return 0
				}
			}
			runtime.ReadMemStats(&after)
			if sites {
				logAllocSites(t, label+" "+what, sitesBefore, allocSites(), calls)
			}
			return float64(after.Mallocs-before.Mallocs) / calls
		}
		null = perCall("NULL", func() error { return cl.NFS.Null(p) })
		call = perCall(fmt.Sprintf("%d KiB %s", size>>10, op), func() error {
			switch op {
			case "WRITE":
				_, err := f.WriteAt(p, buf, 0, 0, size, false)
				return err
			case "READDIRPLUS":
				rd, err := cl.NFS.ReadDir(p, dir, 0, 8192, true)
				if err == nil && len(rd.Entries) != 32 {
					err = fmt.Errorf("READDIRPLUS returned %d of 32 entries", len(rd.Entries))
				}
				return err
			}
			_, _, err := f.ReadAt(p, buf, 0, 0, size, op == "direct READ")
			return err
		})
	})
	cluster.Run()
	return null, call
}

// allocSites returns the objects allocated so far per allocation site: the
// innermost frame in this module, so that a line here is named, not the
// library helper it calls. Its own allocations are left out. It means
// something only while runtime.MemProfileRate is 1.
func allocSites() map[string]int64 {
	runtime.GC() // the profile is complete up to the last collection but one
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	sites := make(map[string]int64)
records:
	for _, r := range recs[:n] {
		var site runtime.Frame
		for frames, more := runtime.CallersFrames(r.Stack()), true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			if strings.HasSuffix(fr.Function, "core.allocSites") {
				continue records
			}
			if inModule := strings.HasPrefix(fr.Function, "repro/"); site.Function == "" && (inModule || !more) {
				site = fr
			}
		}
		// repro/internal/x.(*T).f in /abs/path/internal/x/y.go -> internal/x/y.go:line (*T).f
		slash := strings.LastIndex(site.Function, "/") + 1
		pkg, fn, _ := strings.Cut(site.Function[slash:], ".")
		dir := strings.TrimPrefix(site.Function[:slash]+pkg, "repro/")
		sites[fmt.Sprintf("%s/%s:%d %s", dir, path.Base(site.File), site.Line, fn)] += r.AllocObjects
	}
	return sites
}

// logAllocSites logs the sites that allocated between two allocSites, most
// allocations first, in allocations per call.
func logAllocSites(t *testing.T, what string, before, after map[string]int64, calls int) {
	type site struct {
		at string
		n  int64
	}
	var list []site
	for at, n := range after {
		if n -= before[at]; n > 0 {
			list = append(list, site{at, n})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].n > list[j].n || list[i].n == list[j].n && list[i].at < list[j].at })
	var b strings.Builder
	for _, s := range list {
		if per := float64(s.n) / float64(calls); per >= 0.01 {
			fmt.Fprintf(&b, "\n    %5.2f/RPC  %s", per, s.at)
		}
	}
	t.Logf("%s allocates at:%s", what, b.String())
}
