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
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/trace"
)

// TestAllocsPerRPC pins what one simulated RPC costs the host in heap
// allocations: one client, one call outstanding, tracing off; per design an
// NFS NULL (two Sends), an 8 KiB direct READ under dynamic registration, and
// a 64 KiB buffered READ under all-physical registration (the fan-in
// workloads' call: multi-segment chunk lists, client staging); then a NULL
// and that READ on fanin_mux_telemetry's server (8 shards, multiplexed,
// completion affinity, Reply-Fetch). The benchmark reports the same count
// per workload (host_allocs_per_rpc); this fails in under a second when a
// change to the message path adds an allocation, instead of ten minutes
// later. The pins are the measured counts plus one, rounded up.
//
// A design over a pin is measured again with every allocation profiled, and
// the sites are logged as file:line and allocations per RPC, so the failure
// names the line that allocates; -v logs them for every design.
func TestAllocsPerRPC(t *testing.T) {
	pins := []struct {
		design               rpcrdma.Design
		null, read, physRead float64
	}{
		{rpcrdma.ReadWrite, 2, 7, 6},    // measured 1.00, 6.00 and 4.25
		{rpcrdma.ReadRead, 8, 14, 17},   // 6.24, 12.25 and 15.15
		{rpcrdma.ReplyFetch, 8, 13, 10}, // 7.00, 12.00 and 8.66
	}
	for _, pin := range pins {
		regular := Config{Design: pin.design, RegMode: memreg.Regular}
		physical := Config{Design: pin.design, RegMode: memreg.AllPhysical}
		null, read := allocsPerRPC(t, regular, 8<<10, true, false)
		_, physRead := allocsPerRPC(t, physical, 64<<10, false, false)
		t.Logf("%v: %.2f allocs per NULL, %.2f per 8 KiB direct READ, %.2f per all-physical 64 KiB buffered READ",
			pin.design, null, read, physRead)
		over := null > pin.null || read > pin.read || physRead > pin.physRead
		if over {
			t.Errorf("%v: %.2f allocs per NULL (pin %.0f), %.2f per 8 KiB READ (pin %.0f), %.2f per all-physical 64 KiB READ (pin %.0f)",
				pin.design, null, pin.null, read, pin.read, physRead, pin.physRead)
		}
		if over || testing.Verbose() {
			allocsPerRPC(t, regular, 8<<10, true, true)
			allocsPerRPC(t, physical, 64<<10, false, true)
		}
	}
	fanIn := Config{Design: rpcrdma.ReplyFetch, RegMode: memreg.AllPhysical, ServerShards: 8, Multiplex: true, Affinity: true}
	const fanInNull, fanInRead = 6, 10 // measured 5.00 and 8.66
	null, read := allocsPerRPC(t, fanIn, 64<<10, false, false)
	t.Logf("fan-in (%v, 8 shards, multiplexed, affinity): %.2f allocs per NULL, %.2f per all-physical 64 KiB buffered READ", fanIn.Design, null, read)
	over := null > fanInNull || read > fanInRead
	if over {
		t.Errorf("fan-in: %.2f allocs per NULL (pin %d), %.2f per all-physical 64 KiB READ (pin %d)", null, fanInNull, read, fanInRead)
	}
	if over || testing.Verbose() {
		allocsPerRPC(t, fanIn, 64<<10, false, true)
	}
}

// TestProcessesPerRPC pins what one simulated NFS NULL costs the kernel in
// processes: spawns and parks per steady-state call, one client, one call
// outstanding, counted from the tracer's spawn instants and blocked spans as
// the benchmark's des.spawns_per_rpc and des.parks_per_rpc are. Completion
// handling that blocks only on hardware, time or a CPU charge is a callback
// chain (DESIGN.md §5.1): a reply that is not pulled spawns nothing, and a
// park that comes back here is a regression. The pins are exact.
func TestProcessesPerRPC(t *testing.T) {
	for _, pin := range []struct {
		design        rpcrdma.Design
		spawns, parks float64
	}{
		{rpcrdma.ReadWrite, 0, 10},
		{rpcrdma.ReadRead, 1, 11}, // the spawn is the reply handler, whose pull blocks
		{rpcrdma.ReplyFetch, 0, 20},
	} {
		spawns, parks := processesPerNull(t, pin.design)
		if spawns != pin.spawns || parks != pin.parks {
			t.Errorf("%v: %.2f spawns and %.2f parks per NULL, pinned at %.0f and %.0f", pin.design, spawns, parks, pin.spawns, pin.parks)
		}
	}
}

// processesPerNull counts spawns and parks per NULL on a one-client cluster.
func processesPerNull(t *testing.T, design rpcrdma.Design) (spawns, parks float64) {
	const calls = 200
	cluster := NewCluster(Config{
		Profile:   profiles.LinuxDDR(),
		Transport: TransportRDMA,
		Design:    design,
	})
	tr := cluster.EnableTracing(1 << 18)
	cl := cluster.Clients[0]
	var from, to int
	cluster.Start("pin", func(p *des.Proc) {
		for i := 0; i < 2*calls; i++ {
			if i == calls { // the first half reaches the steady state
				from = tr.Len()
			}
			if err := cl.NFS.Null(p); err != nil {
				t.Errorf("%v: %v", design, err)
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
	for _, e := range tr.Events()[from:to] {
		switch e.Kind {
		case trace.KindSpawn:
			n[0]++
		case trace.KindBlocked:
			n[1]++
		}
	}
	return float64(n[0]) / calls, float64(n[1]) / calls
}

// allocsPerRPC measures heap allocations per NULL and per READ of size bytes
// on a one-client LinuxDDR RDMA cluster configured as cfg. With sites set it
// profiles every allocation and logs where those of the measured calls were
// made.
func allocsPerRPC(t *testing.T, cfg Config, size int, direct, sites bool) (null, read float64) {
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
		buf := cl.NewBuffer(size)
		if _, err := f.WriteAt(p, buf, 0, 0, size, true); err != nil {
			t.Errorf("%v: write: %v", design, err)
			return
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
		read = perCall(fmt.Sprintf("%d KiB READ", size>>10), func() error {
			_, _, err := f.ReadAt(p, buf, 0, 0, size, direct)
			return err
		})
	})
	cluster.Run()
	return null, read
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
