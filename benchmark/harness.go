package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// hostSnap is one edge of a measured round, taken from inside the driver
// process so nothing but the round's own simulation runs between two edges.
type hostSnap struct {
	wall     time.Time
	cpu      time.Duration // user+sys of this process
	requests int64         // server RPCs
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF and a valid pointer
	}
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func snap(c *core.Cluster) hostSnap {
	return hostSnap{wall: time.Now(), cpu: cpuTime(), requests: c.Server.RDMA.Requests}
}

// allocated returns the process's cumulative heap allocation count and bytes.
func allocated() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// roundCost is the host time of one round, per server RPC.
type roundCost struct {
	wallUS, cpuUS float64
	traced        bool
}

// counters are the cluster's cumulative counts at one virtual instant; a
// window is the difference of two readings. (core.Cluster.Metrics(since)
// cannot window a resource whose occupancy changed after since — it clamps
// the whole-run integral — so utilizations are differenced here from
// cumulative busy-seconds instead.)
type counters struct {
	now                                      des.Time
	serverCPU, clientCPU                     float64 // busy core-seconds
	tptBusy, txBusy, diskBusy                float64 // busy seconds: server TPT engine, transmit port, disks
	requests, calls                          int64   // server RPCs served, client Roundtrips issued
	longReplies, doneRecv, deposits, exposed int64
	drcHits, pageHits, pageMisses            int64
	regHits, regMisses, regEvictions         int64
	srqStarved, timeouts, retransmits        int64
	interrupts, migrations, telTicks         int64
}

func readCounters(c *core.Cluster) counters {
	s := c.Server
	now := c.Sim.Now()
	n := counters{
		now:       now,
		serverCPU: s.Node.CPU.TotalBusySeconds(),
		// A whole-run utilization is exact; times elapsed it is busy-seconds.
		tptBusy:     s.Node.HCA.TPTEngineUtilization(0) * now.Seconds(),
		txBusy:      s.Node.TxPort().BusySeconds(),
		requests:    s.RDMA.Requests,
		longReplies: s.RDMA.LongReplies,
		doneRecv:    s.RDMA.DoneRecv,
		deposits:    s.RDMA.Deposits,
		exposed:     s.Node.HCA.RemoteExposedEver(),
		srqStarved:  s.RDMA.SRQStarvedTotal(),
		interrupts:  s.Node.CPU.Interrupts(),
		migrations:  s.Node.CPU.Migrations(),
		telTicks:    int64(c.Telemetry().Samples()),
	}
	n.drcHits, _ = s.Dispatcher.DRCStats()
	if s.Cache != nil {
		n.pageHits, n.pageMisses = s.Cache.Hits, s.Cache.Misses
		n.diskBusy = s.Disk.BusySeconds()
	}
	reg := s.Mgr.Stats()
	for _, cl := range c.Clients {
		n.clientCPU += cl.Node.CPU.TotalBusySeconds()
		n.calls += cl.RDMA.Calls
		t, rt := cl.TransportStats()
		n.timeouts += t
		n.retransmits += rt
		cs := cl.Mgr.Stats()
		reg.CacheHits += cs.CacheHits
		reg.CacheMisses += cs.CacheMisses
		reg.Evictions += cs.Evictions
	}
	n.regHits, n.regMisses, n.regEvictions = reg.CacheHits, reg.CacheMisses, reg.Evictions
	return n
}

// outcome is everything one execution of a workload measured.
type outcome struct {
	setup  time.Duration
	rounds []roundCost

	// The sim window: the leading rounds, whose virtual-time results do not
	// depend on how many rounds the host-time budget allowed.
	open, close counters
	allocs      float64    // heap allocations per RPC over the sim window
	bytes       float64    // heap bytes allocated per RPC over the sim window
	peakRSSMB   float64    // resident-set high-water mark at the close of the sim window
	rec         recorder   // as of the close of the sim window
	roundEnds   []des.Time // virtual time at the end of each sim-window round
	serverCores int
	disks       int
	shardMaxQ   int // work-queue high-water since cluster start
	recvStateMB float64
	drcEntries  int
	events      []trace.Event // traced executions only: the sim window's events

	attempted, failed int64
	problems          []string // correctness-gate failures
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options selects how a workload executes.
type options struct {
	seed     uint64
	size     sizes
	budget   time.Duration // host time to keep running rounds for (the sim window always completes)
	traced   bool          // trace the sim window, shortened to tracedRounds; then alternate tracing off and on
	onWindow func()        // called at window open, e.g. to start a CPU profile
}

// traceRing is the traced window's event ring (about 75 MB), sized so no
// workload's window wraps it; execute fails the run if one does.
const traceRing = 1 << 20

// tracedRounds is the length of a traced sim window: 1/16 of the rounds.
func (w *workload) tracedRounds() int { return (w.simRounds + 15) / 16 }

// execute builds the workload's cluster, sets it up and runs measured
// rounds, all inside one simulation (a finished Run unwinds every server
// process, so rounds cannot span Run calls). Everything from cluster
// construction to window open is set-up.
func execute(w *workload, opt options) *outcome {
	out := &outcome{}
	t0 := time.Now()
	if err := integrityCheck(w, opt.seed); err != nil {
		out.problemf("integrity pre-check: %v", err)
	}
	cluster := core.NewCluster(w.config(opt.seed, opt.size, false))
	out.serverCores = cluster.Server.Node.CPU.Cores()
	if cluster.Server.Disk != nil {
		out.disks = cluster.Server.Disk.Disks()
	}
	if w.telemetry {
		cluster.EnableTelemetry(telemetry.Options{})
	}
	simRounds := w.simRounds
	minRounds := simRounds
	if opt.traced {
		// Past its sim window a traced execution needs one untraced and one
		// traced round at least, whatever the budget, to price tracing.
		simRounds = w.tracedRounds()
		minRounds = simRounds + 2
	}
	r := &run{cluster: cluster, seed: opt.seed, size: opt.size}
	cluster.Start("bench-driver", func(p *des.Proc) {
		if err := w.populate(p, r); err != nil {
			out.problemf("populate: %v", err)
			return
		}
		// Warm-up: one unrecorded round fills registration caches, the DRC,
		// goroutine stacks and the heap to their steady size.
		r.roundNo = -1
		w.round(p, r)
		if r.rec.failed > 0 {
			out.problemf("warm-up: %d failed ops, first: %v", r.rec.failed, r.rec.firstErr)
			return
		}
		// Sample storage is sized from the warm-up round (with headroom for
		// open-loop arrival counts) and allocated here, so the benchmark's
		// own allocations stay out of host_allocs_per_rpc.
		perRound := int(r.rec.ops) + int(r.rec.ops)/2 + 1024
		r.rec = recorder{lat: make([]int64, 0, (simRounds+1)*perRound)}
		out.rounds = make([]roundCost, 0, 4096)
		out.roundEnds = make([]des.Time, 0, simRounds)
		runtime.GC()
		out.setup = time.Since(t0)

		var tr *trace.Tracer
		if opt.traced {
			tr = cluster.EnableTracing(traceRing)
		}
		tracing := opt.traced
		cluster.Server.Node.CPU.ResetWindow()
		cluster.Telemetry().Start(p)
		if opt.onWindow != nil {
			opt.onWindow()
		}
		out.open = readCounters(cluster)
		mallocs0, bytes0 := allocated()
		windowOpen := time.Now()
		keep := 0
		for r.roundNo = 0; ; r.roundNo++ {
			if r.roundNo >= simRounds {
				// Past the sim window samples land in scratch space, and a
				// traced execution alternates untraced and traced rounds, to
				// price tracing against interleaved rounds of the same run.
				r.rec.lat = r.rec.lat[:keep]
				if opt.traced {
					// The ring just wraps from here on; nothing reads it.
					tracing = (r.roundNo-simRounds)%2 == 1
					if cluster.Sim.SetTracer(nil); tracing {
						cluster.Sim.SetTracer(tr)
					}
				}
			}
			before := snap(cluster)
			w.round(p, r)
			after := snap(cluster)
			rpcs := float64(after.requests - before.requests)
			out.rounds = append(out.rounds, roundCost{
				wallUS: float64(after.wall.Sub(before.wall)) / 1e3 / rpcs,
				cpuUS:  float64(after.cpu-before.cpu) / 1e3 / rpcs,
				traced: tracing,
			})
			if r.roundNo < simRounds {
				out.roundEnds = append(out.roundEnds, p.Now())
			}
			if r.roundNo+1 == simRounds {
				// Allocation counts repeat for a seed, round by round, but
				// drift as server state fills up, and so does memory;
				// reading them on the sim window keeps them independent of
				// how many rounds ran.
				out.close = readCounters(cluster)
				out.peakRSSMB = peakRSSMB()
				mallocs, bytes := allocated()
				rpcs := float64(out.close.requests - out.open.requests)
				out.allocs = float64(mallocs-mallocs0) / rpcs
				out.bytes = float64(bytes-bytes0) / rpcs
				out.rec = r.rec
				keep = len(r.rec.lat)
				if opt.traced {
					// The last reply reaches its client before the server
					// closes the call's serve span (post-reply
					// deregistration): let it finish.
					p.Sleep(time.Millisecond)
					if d := tr.Dropped(); d > 0 {
						out.problemf("tracer dropped %d events (ring of %d too small)", d, traceRing)
					}
					out.events = tr.Events()
				}
			}
			if r.roundNo+1 >= minRounds && time.Since(windowOpen) >= opt.budget {
				break
			}
		}
		cluster.Telemetry().Stop()
		end := readCounters(cluster)

		// Correctness gate.
		out.attempted, out.failed = r.rec.ops, r.rec.failed
		if r.rec.failed > 0 {
			out.problemf("%d of %d ops failed, first: %v", r.rec.failed, r.rec.ops, r.rec.firstErr)
		}
		if served, issued := end.requests-out.open.requests, end.calls-out.open.calls; served != issued {
			out.problemf("server served %d RPCs, clients issued %d", served, issued)
		}
		if !w.exposedOK(end.exposed) {
			out.problemf("server installed %d remotely accessible MRs, want %s", end.exposed, w.exposedWant)
		}
		for _, st := range cluster.Server.RDMA.ShardStats() {
			if st.MaxQueueDepth > out.shardMaxQ {
				out.shardMaxQ = st.MaxQueueDepth
			}
		}
		out.recvStateMB = float64(cluster.Server.RDMA.RecvStateBytes()) / 1e6
		out.drcEntries = cluster.Server.Dispatcher.DRCEntries()
	})
	cluster.Run()
	return out
}

// integrityCheck builds the workload's design × registration × receive-path
// combination in miniature with real payload bytes, writes a seeded pattern
// through every client, reads it back and compares byte for byte.
func integrityCheck(w *workload, seed uint64) error {
	if w.noPayload {
		return nil
	}
	cfg := w.config(seed, fullSize, true)
	const size = 64 << 10
	if cfg.Clients*size > 1<<20 {
		return fmt.Errorf("miniature cluster has %d clients", cfg.Clients)
	}
	cluster := core.NewCluster(cfg)
	var firstErr error
	cluster.Start("integrity", func(p *des.Proc) {
		parallel(p, "integrity", len(cluster.Clients), func(wp *des.Proc, i int) {
			fail := func(err error) {
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d: %w", i, err)
				}
			}
			cl := cluster.Clients[i]
			src := cl.NewMaterializedBuffer(size)
			dst := cl.NewMaterializedBuffer(size)
			rng := des.NewRand(seed + uint64(i)*977 + 1)
			for j := range src.Bytes() {
				src.Bytes()[j] = byte(rng.Uint32())
			}
			f, err := cl.Create(wp, fmt.Sprintf("integrity.%d", i))
			if err != nil {
				fail(err)
				return
			}
			if n, err := f.WriteAt(wp, src, 0, 0, size, true); err != nil || n != size {
				fail(fmt.Errorf("wrote %d of %d: %v", n, size, err))
				return
			}
			// Both placement paths: buffered, and direct I/O where the
			// design has one.
			for _, direct := range []bool{false, true} {
				for j := range dst.Bytes() {
					dst.Bytes()[j] = 0
				}
				if n, _, err := f.ReadAt(wp, dst, 0, 0, size, direct); err != nil || n != size {
					fail(fmt.Errorf("read %d of %d: %v", n, size, err))
					return
				}
				if !bytes.Equal(src.Bytes(), dst.Bytes()) {
					fail(fmt.Errorf("read-back differs from what was written (directIO=%v)", direct))
					return
				}
			}
		})
	})
	cluster.Run()
	return firstErr
}

// quantile returns the exact q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianOf(rounds []roundCost, field func(roundCost) float64) float64 {
	vs := make([]float64, len(rounds))
	for i, rc := range rounds {
		vs[i] = field(rc)
	}
	return median(vs)
}

// calibrate times a fixed pure-Go loop (no repository code), about 0.3 s in
// 15 slices (1/div of that for smaller sizes), and returns the median slice:
// the same work before and after a run tells whether the sandbox itself
// changed speed in between.
func calibrate(div int) time.Duration {
	slices := make([]float64, 15)
	x := uint64(88172645463325252)
	for s := range slices {
		t0 := time.Now()
		for i := 0; i < 10_000_000/div; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		slices[s] = float64(time.Since(t0))
	}
	calibSink = x
	return time.Duration(median(slices))
}

var calibSink uint64 // keeps the calibration loop from being optimized away
