package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file holds ablations for the design parameters the paper identifies
// but does not sweep: the IRD/ORD limit, physical-memory contiguity under
// all-physical registration, the inline threshold, and the per-interrupt
// cost behind the Read-Write design's interrupt-elimination argument.
// Like the figures, every ablation fans its independent sweep points out
// through internal/experiments/runner with index-keyed results.

// AblationORD sweeps the outstanding-RDMA-Read limit (the Mellanox HCAs
// allow 8; §4.1 blames the limit for Read-Read serialization and Fig. 9b
// for all-physical WRITE degradation). It reports WRITE throughput (server
// pulls via RDMA Read) and Read-Read READ throughput (client pulls) at 8
// threads.
func AblationORD(scale Scale) *stats.Table {
	t := stats.NewTable("Ablation: IRD/ORD limit (8 threads, 128 KiB records, Linux profile)",
		"maxORD", "RW write MB/s (all-physical)", "RR read MB/s")
	fileSize := scale.div64(64 << 20)
	ords := []int{1, 2, 4, 8, 16, 32}
	// Two configurations per ORD value: the write-side (Read-Write design,
	// all-physical) and the read-side (Read-Read, regular registration).
	pts := runner.Grid(len(ords), 2)
	results := pmap(len(pts), func(i int) workload.IOzoneResult {
		c := pts[i]
		prof := profiles.LinuxSDR()
		prof.Client.MaxORD = ords[c[0]]
		prof.Server.MaxORD = ords[c[0]]
		cfg := core.Config{Profile: prof, Transport: core.TransportRDMA}
		if c[1] == 0 {
			// All-physical fragments records into several read segments,
			// pressing the limit hardest.
			cfg.Design, cfg.RegMode = rpcrdma.ReadWrite, memreg.AllPhysical
		} else {
			cfg.Design, cfg.RegMode = rpcrdma.ReadRead, memreg.Regular
		}
		res, _ := runIOzone(cfg, workload.IOzoneConfig{Threads: 8, FileSize: fileSize, RecordSize: 128 << 10})
		return res
	})
	for i, ord := range ords {
		t.AddRow(ord, results[i*2].Write.MBps, results[i*2+1].Read.MBps)
	}
	return t
}

// AblationPhysicalContiguity sweeps the mean physically contiguous run
// length — the degree of fragmentation all-physical registration suffers.
// Long runs approach single-segment behaviour; page-sized runs make every
// record a storm of small RDMA Reads.
func AblationPhysicalContiguity(scale Scale) *stats.Table {
	t := stats.NewTable("Ablation: physical contiguity under all-physical registration (8 threads, 128 KiB records)",
		"mean run", "write MB/s", "read MB/s", "reads/op")
	fileSize := scale.div64(64 << 20)
	runs := []int{4 << 10, 16 << 10, 32 << 10, 128 << 10, 1 << 20}
	type contigResult struct {
		res        workload.IOzoneResult
		readsPerOp float64
	}
	results := pmap(len(runs), func(i int) contigResult {
		prof := profiles.LinuxSDR()
		prof.Client.MeanPhysRun = runs[i]
		prof.Server.MeanPhysRun = runs[i]
		res, cluster := runIOzone(core.Config{
			Profile: prof, Transport: core.TransportRDMA,
			Design: rpcrdma.ReadWrite, RegMode: memreg.AllPhysical,
		}, workload.IOzoneConfig{Threads: 8, FileSize: fileSize, RecordSize: 128 << 10})
		rdma := cluster.Server.RDMA
		return contigResult{res, float64(rdma.BulkReads) / float64(rdma.Requests) * 2}
	})
	for i, run := range runs {
		t.AddRow(memFmt(run), results[i].res.Write.MBps, results[i].res.Read.MBps, results[i].readsPerOp)
	}
	return t
}

// AblationInlineThreshold sweeps the inline threshold: below the typical
// header+args size every call becomes an RPC Long Call (an extra RDMA Read
// round trip); far above it, nothing changes for bulk-dominated workloads.
func AblationInlineThreshold(scale Scale) *stats.Table {
	t := stats.NewTable("Ablation: inline threshold (8 threads, 128 KiB records, Solaris profile)",
		"threshold", "read MB/s", "long calls", "long replies")
	fileSize := scale.div64(64 << 20)
	thresholds := []int{128, 256, 1024, 4096}
	type inlineResult struct {
		res                    workload.IOzoneResult
		longCalls, longReplies int64
	}
	results := pmap(len(thresholds), func(i int) inlineResult {
		prof := profiles.SolarisSDR()
		prof.RDMAClient.InlineThreshold = thresholds[i]
		prof.RDMAServer.InlineThreshold = thresholds[i]
		res, cluster := runIOzone(core.Config{
			Profile: prof, Transport: core.TransportRDMA,
			Design: rpcrdma.ReadWrite, RegMode: memreg.Cache,
		}, workload.IOzoneConfig{Threads: 8, FileSize: fileSize, RecordSize: 128 << 10, DirectIO: true})
		return inlineResult{res, cluster.Server.RDMA.LongCalls, cluster.Server.RDMA.LongReplies}
	})
	for i, thresh := range thresholds {
		t.AddRow(thresh, results[i].res.Read.MBps, results[i].longCalls, results[i].longReplies)
	}
	return t
}

// AblationInterruptCost sweeps the per-interrupt cost: the Read-Read design
// takes an extra interrupt per operation (the DONE completion), so its gap
// to Read-Write widens with interrupt cost — quantifying the paper's
// interrupt-elimination argument.
func AblationInterruptCost(scale Scale) *stats.Table {
	t := stats.NewTable("Ablation: interrupt cost vs design gap (1 thread, 128 KiB records, Solaris profile)",
		"intr cost", "RR read MB/s", "RW read MB/s", "RW gain %")
	fileSize := scale.div64(32 << 20)
	costs := []des.Duration{0, 3 * time.Microsecond, 6 * time.Microsecond, 12 * time.Microsecond, 24 * time.Microsecond}
	designs := []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReadWrite}
	pts := runner.Grid(len(costs), len(designs))
	results := pmap(len(pts), func(i int) float64 {
		c := pts[i]
		prof := profiles.SolarisSDR()
		prof.Client.InterruptCost = costs[c[0]]
		prof.Server.InterruptCost = costs[c[0]]
		res, _ := runIOzone(core.Config{
			Profile: prof, Transport: core.TransportRDMA,
			Design: designs[c[1]], RegMode: memreg.Regular,
		}, workload.IOzoneConfig{Threads: 1, FileSize: fileSize, RecordSize: 128 << 10, DirectIO: true})
		return res.Read.MBps
	})
	for i, cost := range costs {
		rr, rw := results[i*2], results[i*2+1]
		t.AddRow(cost, rr, rw, rw/rr*100-100)
	}
	return t
}

// AblationCacheBound sweeps the registration-cache byte bound: an
// undersized slab evicts and re-registers, degrading toward dynamic
// registration — the static-limit pathology §4.3 warns about.
func AblationCacheBound(scale Scale) *stats.Table {
	t := stats.NewTable("Ablation: registration cache bound (8 threads, 128 KiB records, Solaris profile)",
		"cache bytes", "read MB/s", "hits", "misses", "evictions")
	fileSize := scale.div64(64 << 20)
	bounds := []int64{256 << 10, 1 << 20, 4 << 20, 64 << 20}
	type cacheResult struct {
		res workload.IOzoneResult
		st  memreg.Stats
	}
	results := pmap(len(bounds), func(i int) cacheResult {
		res, cluster := runIOzone(core.Config{
			Profile: profiles.SolarisSDR(), Transport: core.TransportRDMA,
			Design: rpcrdma.ReadWrite, RegMode: memreg.Cache,
			CacheMaxBytes: bounds[i],
		}, workload.IOzoneConfig{Threads: 8, FileSize: fileSize, RecordSize: 128 << 10})
		return cacheResult{res, cluster.Server.Mgr.Stats()}
	})
	for i, bound := range bounds {
		r := results[i]
		t.AddRow(memFmt(int(bound)), r.res.Read.MBps, r.st.CacheHits, r.st.CacheMisses, r.st.Evictions)
	}
	return t
}

func memFmt(n int) string {
	switch {
	case n >= 1<<20:
		return strconv.Itoa(n>>20) + "MiB"
	case n >= 1<<10:
		return strconv.Itoa(n>>10) + "KiB"
	}
	return strconv.Itoa(n) + "B"
}

// AblationClientCache quantifies the paper's motivating claim: client-side
// data caching helps only while the working set fits client memory. A
// working set is re-read under increasing client cache sizes; once the
// cache covers it, server READ traffic vanishes — below that, the client
// hits the wire at nearly full rate, which is why uncached server access
// speed (the paper's subject) matters.
func AblationClientCache(scale Scale) *stats.Table {
	t := stats.NewTable("Ablation: client data cache size vs server READ traffic (8 MiB working set, 3 re-read passes)",
		"client cache", "server READ RPCs", "hit ratio")
	workingSet := scale.div64(8 << 20)
	// Sweep relative to the working set: an undersized cache thrashes under
	// cyclic re-reads (LRU worst case), a covering cache eliminates traffic.
	fracs := []struct {
		label string
		bytes int64
	}{
		{"none", 0},
		{"ws/4", workingSet / 4},
		{"ws/2", workingSet / 2},
		{"2*ws", 2 * workingSet},
	}
	type clientCacheResult struct {
		reads int64
		ratio float64
	}
	results := pmap(len(fracs), func(i int) clientCacheResult {
		cacheBytes := fracs[i].bytes
		cluster := core.NewCluster(core.Config{
			Profile: profiles.LinuxSDR(), Transport: core.TransportRDMA,
			Design: rpcrdma.ReadWrite, RegMode: memreg.Cache,
		})
		cl := cluster.Clients[0]
		var out clientCacheResult
		check := func(err error) {
			if err != nil {
				panic(fmt.Sprintf("experiments: client-cache ablation: %v", err))
			}
		}
		cluster.Start("drv", func(p *des.Proc) {
			var dc *core.DataCache
			if cacheBytes > 0 {
				dc = cl.EnableDataCache(cacheBytes)
			}
			f, err := cl.Create(p, "ws")
			check(err)
			wbuf := cl.NewBuffer(1 << 20)
			for off := int64(0); off < workingSet; off += 1 << 20 {
				_, err = f.WriteAt(p, wbuf, 0, off, 1<<20, false)
				check(err)
			}
			before := cluster.Server.NFS.Ops[6] // ProcRead
			dst := make([]byte, 64<<10)
			rbuf := cl.NewBuffer(64 << 10)
			for pass := 0; pass < 3; pass++ {
				for off := int64(0); off < workingSet; off += 64 << 10 {
					if dc != nil {
						_, _, err = f.ReadAtCached(p, dst, off)
					} else {
						_, _, err = f.ReadAt(p, rbuf, 0, off, 64<<10, false)
					}
					check(err)
				}
			}
			out.reads = cluster.Server.NFS.Ops[6] - before
			if dc != nil {
				if tot := dc.Hits + dc.Misses; tot > 0 {
					out.ratio = float64(dc.Hits) / float64(tot)
				}
			}
		})
		cluster.Run()
		return out
	})
	for i, frac := range fracs {
		t.AddRow(frac.label, results[i].reads, results[i].ratio)
	}
	return t
}
