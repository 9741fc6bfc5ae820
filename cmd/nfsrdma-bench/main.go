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
// With -openloop the command runs the open-loop load generator instead of
// IOzone: -clients hosts each offer -offered/clients MB/s on a
// deterministic Poisson arrival process for -duration simulated
// milliseconds, reporting achieved throughput, drops, and latency
// quantiles. -shards enables the server's sharded SRQ dispatch path and
// -max-conns its admission control; per-shard SRQ counters are printed
// when sharding is on. -mux multiplexes every client onto one shared QP
// per shard (DCT-style endpoints, O(shards) server connection state) and
// -affinity pins shard reply processing to the completion CPU; the
// open-loop report then includes the server's receive-state bytes and the
// migration/local-wake split.
//
// -cpuprofile and -memprofile write Go pprof profiles of the simulator
// process itself (not the simulated machines) on clean exit — for finding
// host-side hot spots in large runs.
//
// -trace FILE records the run's structured virtual-time events in every
// layer (DES kernel, fabric, RPC/RDMA, ONC RPC, NFS) and writes them as a
// Chrome trace-event JSON file for chrome://tracing or ui.perfetto.dev,
// plus a per-layer span summary and transport latency histograms on stdout.
//
// With -chaos the command runs one seeded chaos schedule (see
// internal/chaos) instead of IOzone: a fault schedule of QP errors, link
// flaps, and server crash/restart cycles generated from -chaos-seed is
// applied to a recovering cluster under the integrity workload, and the
// oracle's verdict is printed. On a failing run, -chaos-shrink bisects the
// schedule to a minimal reproducer. -chaos-broken-drc disables the server's
// duplicate request cache — the deliberately broken server the oracle is
// designed to catch.
//
// With -adversary the command runs the full attack suite (see
// internal/adversary) from a seeded attacker client against a live cluster
// instead of IOzone: rkey scanning, spoofed RDMA_DONE messages, forged
// client credentials against the DRC, and stale-rkey probes, reporting
// time-to-compromise, the server's defensive counters, and the integrity
// oracle's blast radius over the victim clients. -adversary-seed picks the
// run, -adversary-hardened flips the cluster to the hardened posture
// (randomized rkeys, FMR key rotation, stream-claim validation, peer-keyed
// DRC, misbehavior quarantine); -design, -reg, -shards and -mux select the
// surface under attack.
//
// -telemetry FILE samples per-layer gauges and counter rates on a
// virtual-time timer (period -telemetry-interval) during -openloop and
// -chaos runs and writes the series to FILE (.json for a JSON report,
// anything else CSV). -v prints the sparkline dashboard with detector
// findings — saturation-knee onset, starvation windows, SLO burn, and (for
// chaos runs) per-fault recovery times — after the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/adversary"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// telemetryFlags bundles the CLI's telemetry switches: sampling is enabled
// when any of them asks for it.
type telemetryFlags struct {
	out       string
	interval  time.Duration
	dashboard bool
}

func (t telemetryFlags) enabled() bool {
	return t.out != "" || t.dashboard || t.interval > 0
}

func (t telemetryFlags) options() telemetry.Options {
	return telemetry.Options{Interval: des.Duration(t.interval)}
}

// emit writes the report per the flags: -telemetry FILE gets CSV (or a full
// JSON report when FILE ends in .json), -v prints the dashboard.
func (t telemetryFlags) emit(r *telemetry.Report) {
	if r == nil {
		return
	}
	if t.out != "" {
		if err := r.WriteFile(t.out); err != nil {
			fatal("telemetry: %v", err)
		}
		fmt.Printf("telemetry written to %s\n", t.out)
	}
	if t.dashboard {
		fmt.Print(r.Dashboard())
	}
}

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
	openLoop := flag.Bool("openloop", false, "run the open-loop load generator instead of IOzone")
	clients := flag.Int("clients", 1, "client hosts (-openloop)")
	offered := flag.Float64("offered", 600, "aggregate offered load in MB/s (-openloop)")
	durationMS := flag.Int("duration", 200, "measured window in simulated milliseconds (-openloop)")
	flag.IntVar(&cfg.ServerShards, "shards", 0, "server dispatch shards with a shared receive queue (0 = per-connection path)")
	flag.BoolVar(&cfg.Multiplex, "mux", false, "multiplex clients onto one shared QP per shard (implies -shards, default 8)")
	flag.BoolVar(&cfg.Affinity, "affinity", false, "pin shard reply processing to the completion CPU (sharded dispatch)")
	flag.IntVar(&cfg.MaxConns, "max-conns", 0, "server admission-control connection cap (0 = unlimited)")
	adversaryRun := flag.Bool("adversary", false, "run the attacker client against a live cluster instead of IOzone")
	adversarySeed := flag.Uint64("adversary-seed", 1, "attacker/cluster seed (-adversary)")
	adversaryHardened := flag.Bool("adversary-hardened", false, "run the hardened security posture (-adversary)")
	chaosRun := flag.Bool("chaos", false, "run one seeded chaos schedule instead of IOzone")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault-schedule seed (-chaos)")
	chaosFaults := flag.Int("chaos-faults", 4, "faults in the generated schedule (-chaos)")
	chaosMaxCrashes := flag.Int("chaos-max-crashes", 0, "cap on server crashes in the schedule (0 = generator default)")
	chaosShrink := flag.Bool("chaos-shrink", false, "on a failing chaos run, shrink the schedule to a minimal reproducer")
	chaosBrokenDRC := flag.Bool("chaos-broken-drc", false, "disable the server DRC (the broken server the oracle catches)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator process to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile of the simulator process to this file")
	telemetryOut := flag.String("telemetry", "", "write telemetry time series to this file (.json for a JSON report, else CSV); -openloop and -chaos only")
	telemetryIval := flag.Duration("telemetry-interval", 0, "virtual-time sampling period (e.g. 50us); 0 with -telemetry/-v uses the 100µs default")
	verbose := flag.Bool("v", false, "print the telemetry sparkline dashboard and detector findings after the run")
	flag.Parse()

	tf := telemetryFlags{out: *telemetryOut, interval: *telemetryIval, dashboard: *verbose}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal("memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("memprofile: %v", err)
			}
			f.Close()
		}()
	}

	if *disk {
		cfg.Backend = core.BackendDisk
		cfg.PageCacheBytes = 3 << 30 // a 4 GiB server minus kernel and daemons
	}
	if cfg.Multiplex && cfg.ServerShards == 0 {
		cfg.ServerShards = 8
	}

	if *adversaryRun {
		runAdversary(cfg, *adversarySeed, *adversaryHardened)
		return
	}

	if *chaosRun {
		runChaos(cfg, *chaosSeed, *chaosFaults, *chaosMaxCrashes, *chaosShrink, *chaosBrokenDRC, tf)
		return
	}

	if *openLoop {
		cfg.Clients = *clients
		runOpenLoop(cfg, *record, *fileSize, *offered, *durationMS, tf)
		return
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

// runOpenLoop drives every client with a deterministic Poisson arrival
// process at the given aggregate offered load and prints throughput,
// latency quantiles, and — when the server runs sharded dispatch — the
// per-shard SRQ counters.
func runOpenLoop(cfg core.Config, record int, fileSize int64, offeredMBps float64, durationMS int, tf telemetryFlags) {
	res, cluster, err := experiments.RunOpenLoop(cfg, offeredMBps, workload.OpenLoopConfig{
		RecordSize:     record,
		FileSize:       fileSize,
		Duration:       des.Duration(durationMS) * des.Duration(1e6),
		MaxOutstanding: 32,
	}, func(c *core.Cluster) {
		if tf.enabled() {
			c.EnableTelemetry(tf.options())
		}
	})
	if err != nil {
		fatal("open-loop run failed: %v", err)
	}
	fmt.Printf("profile=%s transport=%v design=%v reg=%v clients=%d record=%d shards=%d mux=%v affinity=%v\n",
		cfg.Profile.Name, cfg.Transport, cfg.Design, cfg.RegMode, cfg.Clients, record,
		cfg.ServerShards, cfg.Multiplex, cfg.Affinity)
	fmt.Printf("offered %8.1f MB/s   achieved %8.1f MB/s   serverCPU %5.1f%%\n",
		res.OfferedMBps, res.AchievedMBps, res.ServerCPUPct)
	fmt.Printf("issued=%d completed=%d dropped=%d errors=%d\n",
		res.Issued, res.Completed, res.Dropped, res.Errors)
	fmt.Printf("latency µs: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
		res.P50, res.P95, res.P99, res.Latency.Max())
	fmt.Printf("server recv state: %d bytes   completion handoffs: %d migrated, %d local\n",
		res.ServerRecvStateBytes, res.ServerMigrations, res.ServerLocalWakes)
	if rdma := cluster.Server.RDMA; rdma != nil {
		for _, sh := range rdma.ShardStats() {
			extra := ""
			if cfg.Multiplex {
				extra = fmt.Sprintf(" endpoints=%d muxSlots=%d", sh.Endpoints, sh.MuxSlots)
			}
			fmt.Printf("shard %d: conns=%d requests=%d maxQ=%d srqPosted=%d srqConsumed=%d limitEvents=%d starved=%d%s\n",
				sh.Shard, sh.Conns, sh.Requests, sh.MaxQueueDepth,
				sh.SRQPosted, sh.SRQConsumed, sh.SRQLimitEvents, sh.SRQStarved, extra)
		}
	}
	tf.emit(res.Telemetry)
}

// runAdversary runs the full attack suite from one seeded attacker client
// against a live cluster and prints the run's security verdict:
// time-to-compromise (censored to the run end if nothing landed), the
// per-attack counters, the server's defensive counters, and the integrity
// oracle's blast radius over the victim clients. Exit status 1 when any
// victim's data was corrupted.
func runAdversary(cfg core.Config, seed uint64, hardened bool) {
	res := adversary.Run(adversary.Config{
		Seed:      seed,
		Design:    cfg.Design,
		RegMode:   cfg.RegMode,
		Shards:    cfg.ServerShards,
		Multiplex: cfg.Multiplex,
		Hardened:  hardened,
		Attacks:   adversary.AttackAll,
	})
	fmt.Printf("adversary seed=%d design=%v reg=%v mux=%v hardened=%v faults=%d\n",
		seed, cfg.Design, cfg.RegMode, cfg.Multiplex, hardened, res.FaultCount)
	if res.Compromised {
		fmt.Printf("compromised at t=%v via %s\n", time.Duration(res.TimeToCompromise), res.CompromiseVia)
	} else {
		fmt.Printf("not compromised (time-to-compromise censored at %v)\n", time.Duration(res.FinalTime))
	}
	fmt.Printf("scan: probes=%d hits=%d writeHits=%d reconnects=%d   stale: sent=%d hits=%d\n",
		res.Probes, res.ProbeHits, res.WriteHits, res.Reconnects, res.StaleSent, res.StaleHits)
	fmt.Printf("spoof: sent=%d   forge: sent=%d failed=%d\n", res.SpoofSent, res.ForgeSent, res.ForgeFails)
	fmt.Printf("server: doneRejected=%d spoofDrops=%d crossClientFrees=%d quarantines=%d\n",
		res.DoneRejected, res.SpoofDrops, res.CrossClientFrees, res.Quarantines)
	fmt.Printf("victims: writesAcked=%d reads=%d reconnects=%d crashes=%d blastRadius=%d\n",
		res.Load.WritesAcked, res.Load.ReadsChecked, res.VictimRecon, res.Crashes, res.BlastRadius)
	fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	if len(res.Violations) == 0 {
		fmt.Println("verdict: victims CLEAN (integrity oracle satisfied)")
		return
	}
	fmt.Printf("verdict: victims CORRUPTED (%d violations)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  oracle: %s\n", v)
	}
	os.Exit(1)
}

// runChaos executes one seeded chaos schedule, prints the schedule and the
// oracle's verdict, and — with shrink on a failure — bisects the schedule to
// a minimal reproducer. The exit status is the verdict: 0 clean, 1 failed.
func runChaos(cfg core.Config, seed uint64, faults, maxCrashes int, shrink, brokenDRC bool, tf telemetryFlags) {
	ccfg := chaos.Config{
		Seed:          seed,
		Design:        cfg.Design,
		Shards:        cfg.ServerShards,
		Multiplex:     cfg.Multiplex,
		Affinity:      cfg.Affinity,
		Faults:        faults,
		MaxCrashes:    maxCrashes,
		DisableDRC:    brokenDRC,
		TraceCapacity: 1 << 20,
	}
	if tf.enabled() {
		ccfg.TelemetryInterval = des.Duration(tf.interval)
		if ccfg.TelemetryInterval <= 0 {
			ccfg.TelemetryInterval = des.Duration(telemetry.DefaultInterval)
		}
	}
	res := chaos.Run(ccfg)
	fmt.Printf("chaos seed=%d design=%v shards=%d faults=%d maxCrashes=%d brokenDRC=%v\n",
		seed, cfg.Design, cfg.ServerShards, faults, maxCrashes, brokenDRC)
	fmt.Printf("schedule: %v\n", res.Schedule)
	fmt.Printf("crashes=%d reconnects=%d replays=%d timeouts=%d retrans=%d drcHits=%d drcMisses=%d\n",
		res.Crashes, res.Reconnects, res.Replays, res.Timeouts, res.Retransmits, res.DRCHits, res.DRCMisses)
	fmt.Printf("writes acked=%d failed=%d   oracle reads=%d   renames ok=%d enoent=%d failed=%d\n",
		res.Load.WritesAcked, res.Load.WritesFailed, res.OracleReads,
		res.Load.RenamesOK, res.Load.RenameENOENTs, res.Load.RenamesFailed)
	fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	tf.emit(res.Report)
	if !res.Failed() {
		fmt.Println("verdict: CLEAN (oracle and trace invariants satisfied)")
		return
	}
	fmt.Println("verdict: FAILED")
	for _, v := range res.Violations {
		fmt.Printf("  oracle: %s\n", v)
	}
	for _, v := range res.InvariantViolations {
		fmt.Printf("  invariant: %s\n", v)
	}
	if shrink {
		fmt.Println("shrinking...")
		minimal := chaos.Shrink(res.Schedule, func(s chaos.Schedule) bool {
			c := ccfg
			c.Schedule = &s
			return len(chaos.Run(c).Violations) > 0
		})
		fmt.Printf("minimal reproducer (%d faults): %v\n", len(minimal.Faults), minimal)
		extra := ""
		if maxCrashes > 0 {
			extra += fmt.Sprintf(" -chaos-max-crashes %d", maxCrashes)
		}
		if brokenDRC {
			extra += " -chaos-broken-drc"
		}
		fmt.Printf("replay with: nfsrdma-bench -chaos -chaos-seed %d -chaos-faults %d%s -design %s -chaos-shrink\n",
			seed, faults, extra, cfg.Design)
	}
	os.Exit(1)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
