package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

// A workload is one cluster configuration plus one round of fixed simulated
// work, driven through the client API (core.Client / core.File / nfs3
// stubs). The harness repeats rounds inside a single simulation until the
// host-time budget is spent: host time per RPC is a median over all rounds,
// sim_* metrics pool the first simRounds rounds, so for a seed they repeat
// bit-for-bit however fast the host is.
type workload struct {
	name string

	// config builds the cluster configuration. mini selects the miniature
	// CopyData twin the integrity pre-check runs: same design × registration
	// × receive path, a handful of clients.
	config func(seed uint64, size sizes, mini bool) core.Config

	// telemetry runs the cluster's sampler at its default interval over the
	// measured window.
	telemetry bool

	// noPayload marks a workload that moves no file data, so there is
	// nothing for the integrity pre-check to compare.
	noPayload bool

	// populate creates the files a round needs.
	populate func(p *des.Proc, r *run) error

	// round performs one round of fixed work, recording into r.rec.
	round func(p *des.Proc, r *run)

	// simRounds is how many leading rounds form the sim window.
	simRounds int

	// exposedOK checks the §4.1 ledger: how many remotely accessible MRs the
	// server ever installed under this design × registration combination.
	exposedOK   func(n int64) bool
	exposedWant string
}

// sizes scales a workload: div divides every round's op count (or open-loop
// duration), clientDiv the fan-in client populations.
type sizes struct{ div, clientDiv int }

var (
	fullSize  = sizes{div: 1, clientDiv: 1}
	smokeSize = sizes{div: 100, clientDiv: 16} // the tier-1 test
)

func (s sizes) n(full int) int {
	if v := full / s.div; v > 0 {
		return v
	}
	return 1
}

// run is the state one execution threads through populate and round.
type run struct {
	cluster *core.Cluster
	seed    uint64
	size    sizes
	roundNo int // -1 during warm-up

	files [][]*core.File   // per client, per thread
	bufs  [][]*core.Buffer // per client: per thread (closed loop) or free list (open loop)

	rec recorder
}

// recorder accumulates what the drivers observe: per-op virtual latencies
// as raw samples (the log-bucket stats.Histogram returns p95 = p99 = max on
// sparse tails), op and failure counts, and the simulated time of the phase
// that defines throughput.
type recorder struct {
	lat      []int64  // ns; preallocated in set-up, never grown in the window
	latSum   des.Time // over every completed op, sampled or not
	done     int64    // ops completed
	ops      int64    // ops attempted
	failed   int64    // errors + short counts + arrivals shed
	tputOps  int64    // ops of the throughput-defining phase
	tputTime des.Time
	olOps    int64    // open-loop arrivals
	sloMiss  int64    // open-loop ops slower than core.SLOBudgetUS, failed or shed
	genLate  des.Time // how late open-loop ops were issued after their due arrival
	firstErr error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// complete records one successful op. sample adds its latency to the
// quantile samples; the saturation phase of a fan-in round completes ops
// without sampling them, because latency is read below the knee.
func (r *recorder) complete(lat des.Time, sample bool) {
	r.done++
	r.latSum += lat
	if sample && len(r.lat) < cap(r.lat) {
		r.lat = append(r.lat, int64(lat))
	}
}

// parallel runs n workers as simulation processes and blocks until all
// finish.
func parallel(p *des.Proc, name string, n int, fn func(wp *des.Proc, i int)) {
	sim := p.Sim()
	events := make([]*des.Event, n)
	for i := 0; i < n; i++ {
		i := i
		ev := des.NewEvent(sim)
		events[i] = ev
		sim.Spawn(name, func(wp *des.Proc) {
			fn(wp, i)
			ev.Fire(nil)
		})
	}
	des.WaitAll(p, events...)
}

// rand derives the RNG stream of one worker in one round from the benchmark
// seed: the same seed replays the same inputs, and adjacent workers and
// rounds do not share a stream.
func (r *run) rand(worker int) *des.Rand {
	return des.NewRand(r.seed*1_000_003 + uint64(r.roundNo+1)*7_919 + uint64(worker)*2654435761 + 1)
}

// think idles a closed-loop worker for a seed-derived application think time,
// uniform in [0, max), before an op. Every service time in the model is a
// constant, so without it a closed loop locks into one periodic schedule in
// which every op takes exactly the same time (p50 = p99) whatever the seed.
// It is a sleep, not CPU work: client CPU per op stays pure protocol cost and
// the workers do not contend for client cores over it.
func think(wp *des.Proc, rng *des.Rand, max des.Duration) {
	wp.Sleep(des.Duration(rng.Int63n(int64(max))))
}

// ---------------------------------------------------------------------------
// null_echo: closed loop, 8 clients × 32 outstanding NFS NULL calls on the
// per-connection receive path. No payload, no registration, no vfs.

const (
	nullClients = 8
	nullSlots   = 32
	nullCalls   = 40 // calls per slot per round: 10 240 RPCs
	nullThink   = 10 * time.Microsecond
)

func nullEcho() *workload {
	return &workload{
		name: "null_echo",
		config: func(seed uint64, _ sizes, mini bool) core.Config {
			return core.Config{
				Profile:   profiles.LinuxDDR(),
				Transport: core.TransportRDMA,
				Design:    rpcrdma.ReadWrite,
				RegMode:   memreg.Regular,
				Clients:   nullClients,
				Backend:   core.BackendTmpfs,
				CopyData:  mini,
				Seed:      seed,
			}
		},
		noPayload:   true,
		populate:    func(*des.Proc, *run) error { return nil },
		round:       nullRound,
		simRounds:   10,
		exposedOK:   func(n int64) bool { return n == 0 },
		exposedWant: "0",
	}
}

func nullRound(p *des.Proc, r *run) {
	calls := r.size.n(nullCalls)
	start := p.Now()
	parallel(p, "null", nullClients*nullSlots, func(wp *des.Proc, i int) {
		cl := r.cluster.Clients[i/nullSlots]
		rng := r.rand(i)
		for n := 0; n < calls; n++ {
			think(wp, rng, nullThink)
			t0 := wp.Now()
			r.rec.ops++
			if err := cl.NFS.Null(wp); err != nil {
				r.rec.fail(err)
				continue
			}
			r.rec.complete(wp.Now()-t0, true)
		}
	})
	r.rec.tputOps += int64(nullClients * nullSlots * calls)
	r.rec.tputTime += p.Now() - start
}

// ---------------------------------------------------------------------------
// bulk_write / bulk_read: the two phases of the Fig. 5 IOzone point —
// SolarisSDR, tmpfs, Read-Write, dynamic registration, 1 client × 8 threads,
// 128 KiB records, each thread streaming its own file front to back.

const (
	bulkThreads = 8
	bulkRecord  = 128 << 10
	bulkRecords = 256 // records per thread per round: 2 048 RPCs, 256 MiB
	bulkThink   = 100 * time.Microsecond
)

func bulk(name string, write bool) *workload {
	return &workload{
		name: name,
		config: func(seed uint64, _ sizes, mini bool) core.Config {
			return core.Config{
				Profile:   profiles.SolarisSDR(),
				Transport: core.TransportRDMA,
				Design:    rpcrdma.ReadWrite,
				RegMode:   memreg.Regular,
				Clients:   1,
				Backend:   core.BackendTmpfs,
				CopyData:  mini,
				Seed:      seed,
			}
		},
		populate: func(p *des.Proc, r *run) error {
			cl := r.cluster.Clients[0]
			r.files = [][]*core.File{make([]*core.File, bulkThreads)}
			r.bufs = [][]*core.Buffer{make([]*core.Buffer, bulkThreads)}
			for i := 0; i < bulkThreads; i++ {
				f, err := cl.Create(p, fmt.Sprintf("bulk.%d", i))
				if err != nil {
					return err
				}
				r.files[0][i] = f
				r.bufs[0][i] = cl.NewBuffer(bulkRecord)
			}
			// Write every file once so reads hit allocated space and both
			// workloads start from the same server state.
			var rec recorder
			bulkPhase(p, r, &rec, true)
			return rec.firstErr
		},
		round:       func(p *des.Proc, r *run) { bulkPhase(p, r, &r.rec, write) },
		simRounds:   8,
		exposedOK:   func(n int64) bool { return n == 0 },
		exposedWant: "0",
	}
}

// bulkPhase streams every thread's file sequentially: writes, or direct-I/O
// reads.
func bulkPhase(p *des.Proc, r *run, rec *recorder, write bool) {
	records := r.size.n(bulkRecords)
	start := p.Now()
	parallel(p, "bulk", bulkThreads, func(wp *des.Proc, i int) {
		f, buf := r.files[0][i], r.bufs[0][i]
		rng := r.rand(i)
		for n := 0; n < records; n++ {
			think(wp, rng, bulkThink)
			t0 := wp.Now()
			rec.ops++
			var got int
			var err error
			if write {
				got, err = f.WriteAt(wp, buf, 0, int64(n)*bulkRecord, bulkRecord, false)
			} else {
				got, _, err = f.ReadAt(wp, buf, 0, int64(n)*bulkRecord, bulkRecord, true)
			}
			if err == nil && got != bulkRecord {
				err = fmt.Errorf("bulk: short transfer, %d of %d bytes", got, bulkRecord)
			}
			if err != nil {
				rec.fail(err)
				continue
			}
			rec.complete(wp.Now()-t0, true)
		}
	})
	rec.tputOps += int64(bulkThreads * records)
	rec.tputTime += p.Now() - start
}

// ---------------------------------------------------------------------------
// meta_mix: closed loop, LinuxSDR, tmpfs, Read-Read, registration cache,
// client attribute cache off, 1 client × 4 threads over 8 dirs × 32 files.

const (
	metaThreads = 4
	metaDirs    = 8
	metaFiles   = 32
	metaOps     = 500 // ops per thread per round: ≈ 5 400 RPCs
	metaIO      = 8 << 10
)

func metaMix() *workload {
	return &workload{
		name: "meta_mix",
		config: func(seed uint64, _ sizes, mini bool) core.Config {
			return core.Config{
				Profile:   profiles.LinuxSDR(),
				Transport: core.TransportRDMA,
				Design:    rpcrdma.ReadRead,
				RegMode:   memreg.Cache,
				Clients:   1,
				Backend:   core.BackendTmpfs,
				CopyData:  mini,
				Seed:      seed,
			}
		},
		populate:    metaPopulate,
		round:       metaRound,
		simRounds:   32,
		exposedOK:   func(n int64) bool { return n > 0 },
		exposedWant: "> 0",
	}
}

func metaPopulate(p *des.Proc, r *run) error {
	cl := r.cluster.Clients[0]
	r.bufs = [][]*core.Buffer{make([]*core.Buffer, metaThreads)}
	for i := range r.bufs[0] {
		r.bufs[0][i] = cl.NewBuffer(metaIO)
	}
	for d := 0; d < metaDirs; d++ {
		if err := cl.Mkdir(p, fmt.Sprintf("md%02d", d)); err != nil {
			return err
		}
		for f := 0; f < metaFiles; f++ {
			file, err := cl.Create(p, fmt.Sprintf("md%02d/f%03d", d, f))
			if err != nil {
				return err
			}
			if n, err := file.WriteAt(p, r.bufs[0][0], 0, 0, metaIO, false); err != nil || n != metaIO {
				return fmt.Errorf("meta populate: wrote %d of %d: %v", n, metaIO, err)
			}
		}
	}
	return nil
}

// metaRound is the SPECsfs-flavoured mix of workload.RunMetadata; with the
// attribute cache off every path component is a LOOKUP (≈ 2.7 RPCs per op):
// 30 % stat, 30 % open + 8 KiB read, 20 % open + 8 KiB write, 10 % create +
// remove, 10 % lookup + READDIRPLUS (READDIRPLUS because 32 plain entries
// still fit the inline receive buffer; with attributes and handles the
// listing is a long reply).
func metaRound(p *des.Proc, r *run) {
	ops := r.size.n(metaOps)
	cl := r.cluster.Clients[0]
	start := p.Now()
	parallel(p, "meta", metaThreads, func(wp *des.Proc, i int) {
		rng := r.rand(i)
		buf := r.bufs[0][i]
		for n := 0; n < ops; n++ {
			dir := fmt.Sprintf("md%02d", rng.Intn(metaDirs))
			path := fmt.Sprintf("%s/f%03d", dir, rng.Intn(metaFiles))
			t0 := wp.Now()
			r.rec.ops++
			var err error
			switch rng.Intn(10) {
			case 0, 1, 2:
				_, err = cl.Stat(wp, path)
			case 3, 4, 5:
				var f *core.File
				if f, err = cl.Open(wp, path); err == nil {
					var got int
					if got, _, err = f.ReadAt(wp, buf, 0, 0, metaIO, false); err == nil && got != metaIO {
						err = fmt.Errorf("meta: short read, %d of %d bytes", got, metaIO)
					}
				}
			case 6, 7:
				var f *core.File
				if f, err = cl.Open(wp, path); err == nil {
					var got int
					if got, err = f.WriteAt(wp, buf, 0, 0, metaIO, false); err == nil && got != metaIO {
						err = fmt.Errorf("meta: short write, %d of %d bytes", got, metaIO)
					}
				}
			case 8:
				name := fmt.Sprintf("%s/tmp%d_%d_%d", dir, i, r.roundNo, n)
				if _, err = cl.Create(wp, name); err == nil {
					err = cl.Remove(wp, name)
				}
			default:
				dirFH, _, lerr := cl.NFS.Lookup(wp, cl.Root, dir)
				if err = lerr; err == nil {
					rd, rerr := cl.NFS.ReadDir(wp, dirFH, 0, 8192, true)
					if err = rerr; err == nil && len(rd.Entries) < metaFiles {
						err = fmt.Errorf("meta: READDIRPLUS returned %d of %d entries", len(rd.Entries), metaFiles)
					}
				}
			}
			if err != nil {
				r.rec.fail(err)
				continue
			}
			r.rec.complete(wp.Now()-t0, true)
		}
	})
	r.rec.tputOps += int64(metaThreads * ops)
	r.rec.tputTime += p.Now() - start
}

// ---------------------------------------------------------------------------
// fanin_sharded / fanin_mux_telemetry: hundreds to thousands of clients
// reading 64 KiB records at random from per-client files that fit the
// server page cache, LinuxDDR, RAID-0 + page cache, all-physical
// registration, 8 dispatch shards.

const (
	faninRecord      = 64 << 10
	faninOutstanding = 32 // per-client cap; an arrival beyond it is shed and counts as failed
	faninShards      = 8
	faninThink       = 50 * time.Microsecond
	// faninDrain is the idle time that ends a round. A closed-loop burst
	// leaves work behind that no client waits for: under Reply-Fetch the
	// server takes 17 ms to work off 2048 queued RDMA_DONEs, and the next
	// round's first open-loop arrivals would wait behind them.
	faninDrain = 25 * time.Millisecond
)

type faninShape struct {
	clients    int
	fileSize   int64
	offeredBps float64      // aggregate open-loop offered load
	openLoop   des.Duration // virtual length of the open-loop phase of a round
	satReads   int          // closed-loop reads per client per round
	simRounds  int          // leading rounds that form the sim window
	design     rpcrdma.Design
	mux        bool // shared QPs + completion affinity
}

func (sh faninShape) config(seed uint64, size sizes, mini bool) core.Config {
	clients, backend := sh.clients/size.clientDiv, core.BackendDisk
	if mini {
		// The disk store models timing only and never materializes
		// contents; the combination under test does not include the backend.
		clients, backend = 16, core.BackendTmpfs
	}
	prof := profiles.LinuxDDR()
	// As in the capacity sweeps (experiments.runCapacityPoint): the
	// parked-reply pool and the worker count scale with the population.
	prof.RDMAServer.ReplyBufPool = 4 * clients
	if w := 4 * faninShards; w > prof.RDMAServer.Workers {
		prof.RDMAServer.Workers = w
	}
	return core.Config{
		Profile:      prof,
		Transport:    core.TransportRDMA,
		Design:       sh.design,
		RegMode:      memreg.AllPhysical,
		Clients:      clients,
		Backend:      backend,
		ServerShards: faninShards,
		MaxConns:     clients,
		Multiplex:    sh.mux,
		Affinity:     sh.mux,
		CopyData:     mini,
		Seed:         seed,
	}
}

func (sh faninShape) populate(p *des.Proc, r *run) error {
	n := len(r.cluster.Clients)
	r.files = make([][]*core.File, n)
	r.bufs = make([][]*core.Buffer, n)
	var firstErr error
	parallel(p, "fanin-populate", n, func(wp *des.Proc, i int) {
		cl := r.cluster.Clients[i]
		f, err := cl.Create(wp, fmt.Sprintf("fanin.%d", i))
		if err != nil {
			firstErr = err
			return
		}
		buf := cl.NewBuffer(faninRecord)
		r.files[i] = []*core.File{f}
		r.bufs[i] = []*core.Buffer{buf}
		for off := int64(0); off < sh.fileSize; off += faninRecord {
			if got, err := f.WriteAt(wp, buf, 0, off, faninRecord, false); err != nil || got != faninRecord {
				firstErr = fmt.Errorf("fanin populate: wrote %d of %d: %v", got, faninRecord, err)
				return
			}
		}
	})
	return firstErr
}

// round is phase A, open loop: every client runs an independent Poisson
// arrival process for sh.openLoop of virtual time and each read is timed
// from its due arrival; a gap that crosses the deadline is cut short, then
// in-flight reads drain. Phase B, closed loop: every client issues
// back-to-back reads, which measures capacity at saturation. Latency is read
// below the knee and capacity at saturation, so neither depends on shed
// arrivals.
func (sh faninShape) round(p *des.Proc, r *run) {
	sim := p.Sim()
	n := len(r.cluster.Clients)
	blocks := sh.fileSize / faninRecord
	meanGap := des.Duration(faninRecord / (sh.offeredBps / float64(n)) * 1e9)
	start := p.Now()
	deadline := start + des.Time(sh.openLoop/des.Duration(r.size.div))
	parallel(p, "fanin-gen", n, func(wp *des.Proc, i int) {
		cl := r.cluster.Clients[i]
		f := r.files[i][0]
		rng := r.rand(i)
		free := r.bufs[i]
		outstanding := 0
		generating := true
		drained := des.NewEvent(sim)
		for {
			gap := rng.ExpDuration(meanGap)
			if wp.Now()+des.Time(gap) >= deadline {
				wp.Sleep(des.Duration(deadline - wp.Now()))
				break
			}
			wp.Sleep(gap)
			due := wp.Now()
			r.rec.ops++
			r.rec.olOps++
			if outstanding >= faninOutstanding {
				r.rec.sloMiss++
				r.rec.fail(fmt.Errorf("fanin: arrival shed at the outstanding cap of %d", faninOutstanding))
				continue
			}
			outstanding++
			off := rng.Int63n(blocks) * faninRecord
			var buf *core.Buffer
			if len(free) > 0 {
				buf, free = free[len(free)-1], free[:len(free)-1]
			} else {
				buf = cl.NewBuffer(faninRecord)
			}
			sim.Spawn("fanin-op", func(op *des.Proc) {
				r.rec.genLate += op.Now() - due
				got, _, err := f.ReadAt(op, buf, 0, off, faninRecord, false)
				if err == nil && got != faninRecord {
					err = fmt.Errorf("fanin: short read, %d of %d bytes", got, faninRecord)
				}
				if lat := op.Now() - due; err != nil {
					r.rec.sloMiss++
					r.rec.fail(err)
				} else {
					if lat.Micros() > core.SLOBudgetUS {
						r.rec.sloMiss++
					}
					r.rec.complete(lat, true)
				}
				free = append(free, buf)
				outstanding--
				if !generating && outstanding == 0 {
					drained.Fire(nil)
				}
			})
		}
		generating = false
		if outstanding > 0 {
			drained.Wait(wp)
		}
		r.bufs[i] = free
	})

	reads := r.size.n(sh.satReads)
	start = p.Now()
	parallel(p, "fanin-sat", n, func(wp *des.Proc, i int) {
		f, buf := r.files[i][0], r.bufs[i][0]
		rng := r.rand(n + i)
		for k := 0; k < reads; k++ {
			think(wp, rng, faninThink)
			t0 := wp.Now()
			r.rec.ops++
			got, _, err := f.ReadAt(wp, buf, 0, rng.Int63n(blocks)*faninRecord, faninRecord, false)
			if err == nil && got != faninRecord {
				err = fmt.Errorf("fanin: short read, %d of %d bytes", got, faninRecord)
			}
			if err != nil {
				r.rec.fail(err)
				continue
			}
			r.rec.complete(wp.Now()-t0, false)
		}
	})
	r.rec.tputOps += int64(n * reads)
	r.rec.tputTime += p.Now() - start
	p.Sleep(faninDrain)
}

func fanin(name string, sh faninShape, telemetry bool) *workload {
	return &workload{
		name:        name,
		config:      sh.config,
		telemetry:   telemetry,
		populate:    sh.populate,
		round:       sh.round,
		simRounds:   sh.simRounds,
		exposedOK:   func(n int64) bool { return n == 1 },
		exposedWant: "1 (the all-physical global steering tag)",
	}
}

func allWorkloads() []*workload {
	return []*workload{
		nullEcho(),
		bulk("bulk_write", true),
		bulk("bulk_read", false),
		metaMix(),
		// 512 clients × 1 MiB files on dedicated QPs, sharded SRQ server,
		// no affinity, Read-Write. 600 MB/s is below this path's knee.
		fanin("fanin_sharded", faninShape{
			clients: 512, fileSize: 1 << 20, offeredBps: 600e6,
			openLoop: 150 * time.Millisecond, satReads: 2, simRounds: 24, design: rpcrdma.ReadWrite,
		}, false),
		// 2048 clients × 256 KiB files multiplexed onto 8 shared QPs with
		// affinity, Reply-Fetch, telemetry sampling every client each tick.
		// The sampler makes an RPC cost four times fanin_sharded's host
		// time, so the sim window is a few long rounds: the open-loop phases
		// still pool 14 600 latency samples, and the 2048-deep closed-loop
		// burst runs four times, not twenty-four.
		fanin("fanin_mux_telemetry", faninShape{
			clients: 2048, fileSize: 256 << 10, offeredBps: 500e6,
			openLoop: 480 * time.Millisecond, satReads: 1, simRounds: 4, design: rpcrdma.ReplyFetch, mux: true,
		}, true),
	}
}
