// Command nfsrdma-bench runs a single IOzone-style measurement on a chosen
// configuration and prints the result — the quickest way to explore the
// design space by hand.
//
// Usage:
//
//	nfsrdma-bench -profile solaris-sdr -transport rdma -design read-write \
//	              -reg cache -threads 8 -record 131072 -file 134217728 -direct
//
// With -sweep N the command instead sweeps thread counts 1..N as
// independent simulations fanned across the machine's cores (see
// internal/experiments/runner) and prints one row per point; -workers pins
// the concurrency. The per-run inspection flags (-metrics, -latency,
// -trace) apply only to single runs.
//
// -trace FILE records the run's structured virtual-time events in every
// layer (DES kernel, fabric, RPC/RDMA, ONC RPC, NFS) and writes them as a
// Chrome trace-event JSON file for chrome://tracing or ui.perfetto.dev,
// plus a per-layer span summary and transport latency histograms on stdout.
//
// Open-loop capacity, chaos and adversary runs are sweeps of
// nfsrdma-experiments (-only capacity,muxcap,chaos,adversary).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// The cluster is described once, in cfg: each flag parses straight into
	// the field it sets, through the inverse of that field's String method.
	cfg := core.Config{Profile: profiles.SolarisSDR()}
	flag.Func("profile", "testbed profile: solaris-sdr (default), linux-sdr, linux-ddr", func(s string) (err error) {
		cfg.Profile, err = profiles.Parse(s)
		return err
	})
	flag.Func("transport", "transport: rdma (default), ipoib, gige", func(s string) (err error) {
		cfg.Transport, err = core.ParseTransport(s)
		return err
	})
	flag.Func("design", "bulk design: read-write (default), read-read, reply-fetch", func(s string) (err error) {
		cfg.Design, err = rpcrdma.ParseDesign(s)
		return err
	})
	flag.Func("reg", "registration mode: register (default), fmr, all-physical, cache", func(s string) (err error) {
		cfg.RegMode, err = memreg.ParseMode(s)
		return err
	})
	threads := flag.Int("threads", 1, "IOzone threads")
	record := flag.Int("record", 128<<10, "record size in bytes")
	fileSize := flag.Int64("file", 128<<20, "file size per thread in bytes")
	direct := flag.Bool("direct", false, "use the zero-copy direct-I/O read path")
	disk := flag.Bool("disk", false, "use the RAID disk back end instead of tmpfs")
	metrics := flag.Bool("metrics", false, "print a full cluster metrics snapshot")
	latency := flag.Bool("latency", false, "print per-procedure latency histograms")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	sweep := flag.Int("sweep", 0, "sweep thread counts 1..N in parallel instead of one run")
	workers := flag.Int("workers", 0, "concurrent simulations for -sweep (0 = one per core)")
	flag.Parse()

	if *disk {
		cfg.Backend = core.BackendDisk
		cfg.PageCacheBytes = 3 << 30 // a 4 GiB server minus kernel and daemons
	}
	if *sweep > 0 {
		runSweep(cfg, *sweep, *workers, *record, *fileSize, *direct)
		return
	}

	var tracer *trace.Tracer
	res, cluster, err := experiments.RunIOzone(cfg, workload.IOzoneConfig{
		Threads: *threads, FileSize: *fileSize, RecordSize: *record, DirectIO: *direct,
	}, func(c *core.Cluster) {
		if *traceOut != "" {
			tracer = c.EnableTracing(1 << 20)
		}
		if *latency {
			c.Start("latency-setup", func(p *des.Proc) {
				c.Clients[0].NFS.EnableLatencyStats(c.Sim)
			})
		}
	})
	if err != nil {
		fatal("run failed: %v", err)
	}
	fmt.Printf("profile=%s transport=%v design=%v reg=%v threads=%d record=%d file=%d direct=%v\n",
		cfg.Profile.Name, cfg.Transport, cfg.Design, cfg.RegMode, *threads, *record, *fileSize, *direct)
	fmt.Printf("write: %8.1f MB/s   clientCPU %5.1f%%   serverCPU %5.1f%%\n",
		res.Write.MBps, res.Write.ClientCPUPct, res.Write.ServerCPUPct)
	fmt.Printf("read:  %8.1f MB/s   clientCPU %5.1f%%   serverCPU %5.1f%%   interrupts %d\n",
		res.Read.MBps, res.Read.ClientCPUPct, res.Read.ServerCPUPct, res.Read.Interrupts)
	fmt.Printf("simulated time: %v\n", cluster.Sim.Now())
	if *metrics {
		cluster.Metrics(nil).Write(os.Stdout)
	}
	if rdma := cluster.Server.RDMA; rdma != nil {
		fmt.Printf("server: requests=%d bulkReads=%d bulkWrites=%d longCalls=%d longReplies=%d\n",
			rdma.Requests, rdma.BulkReads, rdma.BulkWrites, rdma.LongCalls, rdma.LongReplies)
		st := cluster.Server.Mgr.Stats()
		fmt.Printf("server registrations: dynamic=%d fmrMaps=%d fmrFallbacks=%d cacheHits=%d cacheMisses=%d\n",
			st.Registers, st.FMRMaps, st.FMRFallback, st.CacheHits, st.CacheMisses)
	}
	if *latency {
		fmt.Println("per-procedure latency:")
		for proc := uint32(0); proc <= nfs3.ProcCommit; proc++ {
			h := cluster.Clients[0].NFS.Latency(proc)
			if h == nil || h.Count() == 0 {
				continue
			}
			fmt.Printf("  %-12s %s\n", nfs3.ProcName(proc), h.Summary())
		}
	}
	if tracer != nil {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fatal("trace: %v", ferr)
		}
		events := tracer.Events()
		if werr := trace.WriteChrome(f, events); werr != nil {
			fatal("trace: %v", werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal("trace: %v", cerr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events, %d dropped)\n", *traceOut, len(events), tracer.Dropped())
		fmt.Println(trace.Summary(events))
		for _, nh := range tracer.Histograms() {
			fmt.Printf("  %-16s %s\n", nh.Name, nh.Hist.Summary())
		}
	}
}

// runSweep fans thread counts 1..n out across the runner's worker pool,
// each point an independent cluster, and prints the results in thread
// order (results are keyed by point index, so the table is deterministic
// at any worker count).
func runSweep(cfg core.Config, n, workers, record int, fileSize int64, direct bool) {
	if workers <= 0 {
		workers = runner.Workers()
	}
	results := runner.MapWorkers(workers, n, func(i int) workload.IOzoneResult {
		res, _, err := experiments.RunIOzone(cfg, workload.IOzoneConfig{
			Threads: i + 1, FileSize: fileSize, RecordSize: record, DirectIO: direct,
		}, nil)
		if err != nil {
			fatal("sweep point %d failed: %v", i+1, err)
		}
		return res
	})
	fmt.Printf("profile=%s transport=%v design=%v reg=%v record=%d file=%d direct=%v workers=%d\n",
		cfg.Profile.Name, cfg.Transport, cfg.Design, cfg.RegMode, record, fileSize, direct, workers)
	t := stats.NewTable("", "threads", "write MB/s", "read MB/s", "client CPU %", "server CPU %")
	for i, res := range results {
		t.AddRow(i+1, res.Write.MBps, res.Read.MBps, res.Read.ClientCPUPct, res.Read.ServerCPUPct)
	}
	fmt.Print(t)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
