package chaos

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes one chaos run: the cluster (the embedded
// core.Config), the chaos workload, and a fault schedule — generated from
// Seed, its times counted from when the load starts, unless an explicit
// Schedule in absolute time, e.g. a shrinker candidate, is supplied.
// Run sets the cluster's Profile, Transport, Backend, CopyData and Recovery
// itself: the watchdog profile and recovery budget below, the RDMA
// transport, tmpfs, and real bytes, which integrity checking needs.
// DRCEntries -1 turns the server's duplicate request cache off — the
// deliberately-broken-server ablation the oracle must catch (replayed
// RENAMEs re-execute and surface illegal ENOENTs).
type Config struct {
	core.Config

	// Faults/MaxCrashes feed the schedule generator, whose defaults apply
	// (see GenConfig). Zero Faults and no Schedule is a run without faults.
	Faults     int
	MaxCrashes int

	// Schedule overrides generation: the exact fault list to apply
	// (shrinking replays candidates this way). Seed is still used for the
	// cluster's own randomness.
	Schedule *Schedule

	// TraceCapacity > 0 enables tracing and runs the trace invariant
	// checkers after the run, priced by registration mode (see
	// checkInvariants): WQE/CQE pairing, each client exposure bounded by
	// its RPC or by the mode's standing registration, and no remote
	// exposure of a Read-Write or Reply-Fetch server.
	TraceCapacity int

	// TelemetryInterval > 0 enables virtual-time sampling at this period;
	// the run's Result then carries a telemetry report with every scheduled
	// fault annotated with its measured recovery time.
	TelemetryInterval des.Duration
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients <= 0 {
		c.Clients = 2
	}
}

// Result is one chaos run's outcome: the schedule that was applied, every
// oracle and invariant violation, and the counters that make up the
// determinism fingerprint.
type Result struct {
	Schedule Schedule

	// Violations are data-integrity oracle failures; InvariantViolations
	// are trace invariant checker failures.
	Violations          []string
	InvariantViolations []string

	Crashes             int64
	Reconnects, Replays int64
	Timeouts            int64
	DRCHits, DRCMisses  int64
	Load                workload.ChaosLoadResult
	WritesIssued        int64
	OracleReads         int64
	OracleRenameENOENTs int64
	FinalTime           des.Time

	// Fingerprint condenses every counter and the final virtual time into
	// one string; equal fingerprints mean byte-identical runs.
	Fingerprint string

	// Report is the telemetry report with chaos-recovery findings (one per
	// scheduled fault); nil unless Config.TelemetryInterval was set.
	Report *telemetry.Report
}

// Failed reports whether the run violated the oracle or a trace invariant.
func (r *Result) Failed() bool {
	return len(r.Violations) > 0 || len(r.InvariantViolations) > 0
}

// Profile arms per-call watchdogs on LinuxSDR so silent losses (e.g. a reply
// swallowed by a crash) time out, end their connection and are replayed on a
// new one instead of hanging. The adversary engine's victims run on it too.
func Profile() profiles.Profile {
	prof := profiles.LinuxSDR()
	prof.RDMAClient.CallTimeout = 1 * time.Millisecond
	return prof
}

// Policy is the recovery budget: generous enough to ride out every outage a
// generated schedule can produce, so terminal failures stay rare and the
// oracle's pending sets stay small.
func Policy() *core.RetryPolicy {
	return &core.RetryPolicy{
		MaxReconnects: 40,
		Backoff:       50 * time.Microsecond,
		MaxBackoff:    1 * time.Millisecond,
	}
}

// Run executes one seeded chaos run and returns its result. Identical
// configs produce identical results (see Result.Fingerprint).
func Run(cfg Config) *Result { return Start(cfg).Finish() }

// Harness is a chaos run between Start and Finish: the cluster is wired, the
// schedule armed and the load started, but no simulated time has passed, so
// a caller can add nodes and processes of its own (the adversary's attacker).
type Harness struct {
	Cluster *core.Cluster
	Oracle  *Oracle

	tr  *trace.Tracer
	res *Result
}

// Start builds the cluster, the oracle and the fault schedule, and starts
// the integrity-checked load on every client.
func Start(cfg Config) *Harness {
	cfg.defaults()
	cc := cfg.Config
	cc.Profile, cc.Transport, cc.Backend, cc.CopyData, cc.Recovery = Profile(), core.TransportRDMA, core.BackendTmpfs, true, Policy()
	h := &Harness{Cluster: core.NewCluster(cc), Oracle: NewOracle()}
	if cfg.TraceCapacity > 0 {
		h.tr = h.Cluster.EnableTracing(cfg.TraceCapacity)
	}
	if cfg.TelemetryInterval > 0 {
		h.Cluster.EnableTelemetry(telemetry.Options{Interval: cfg.TelemetryInterval})
	}

	// An explicit schedule is absolute and armed now, so it can hit set-up
	// and a shrinker's candidates replay exactly; a generated one counts
	// from when the load starts, and is recorded in absolute time.
	h.res = &Result{}
	if cfg.Schedule != nil {
		h.res.Schedule = *cfg.Schedule
		h.res.Schedule.Apply(h.Cluster, h.Oracle)
	} else {
		h.res.Schedule = Generate(cfg.Seed, GenConfig{Faults: cfg.Faults, Clients: cfg.Clients, MaxCrashes: cfg.MaxCrashes})
	}
	h.Cluster.Start("chaos", func(p *des.Proc) {
		if cfg.Schedule == nil {
			for i := range h.res.Schedule.Faults {
				h.res.Schedule.Faults[i].At += p.Now()
			}
			h.res.Schedule.Apply(h.Cluster, h.Oracle)
		}
		load, err := workload.RunChaosLoad(p, h.Cluster, h.Oracle)
		if err != nil {
			h.Oracle.Violation("workload error: %v", err)
		}
		h.res.Load = load
	})
	return h
}

// Finish runs the simulation to its end, judges it — the oracle, and the
// trace invariants when tracing is on — and builds the fingerprint.
func (h *Harness) Finish() *Result {
	cluster, oracle, res := h.Cluster, h.Oracle, h.res
	res.FinalTime = cluster.RunUntil(des.Time(10 * time.Second))

	res.Violations = oracle.Report()
	res.Crashes = cluster.Crashes
	tot := &cluster.Totals
	res.Reconnects, res.Replays = tot.Reconnects, tot.Replays
	res.Timeouts = tot.RDMA.Timeouts
	res.DRCHits, res.DRCMisses = cluster.Server.Dispatcher.DRCStats()
	res.WritesIssued = oracle.WritesIssued
	res.OracleReads = oracle.ReadsChecked
	res.OracleRenameENOENTs = oracle.RenameChecks

	if h.tr != nil {
		h.checkInvariants()
	}
	if tel := cluster.Telemetry(); tel != nil {
		res.Report = tel.Report()
		res.Report.Findings = append(res.Report.Findings,
			res.Report.AnnotateFaults(res.Schedule.FaultWindows(), "workload.writes_acked")...)
	}

	res.Fingerprint = fmt.Sprintf(
		"t=%d crashes=%d rc=%d rp=%d to=%d drc=%d/%d wi=%d wa=%d wf=%d reads=%d ren=%d/%d/%d viol=%d inv=%d",
		int64(res.FinalTime), res.Crashes, res.Reconnects, res.Replays,
		res.Timeouts, res.DRCHits, res.DRCMisses,
		res.WritesIssued, res.Load.WritesAcked, res.Load.WritesFailed,
		res.OracleReads, res.Load.RenamesOK, res.Load.RenameENOENTs, res.Load.RenamesFailed,
		len(res.Violations), len(res.InvariantViolations))
	return res
}

// checkInvariants runs the trace invariant checkers over the run's event
// stream, each where the registration mode promises what it checks. A full
// ring (dropped events) makes pairing checks unreliable, so it is itself
// reported instead of false positives.
func (h *Harness) checkInvariants() {
	res, cfg := h.res, h.Cluster.Cfg
	fail := func(format string, args ...any) {
		res.InvariantViolations = append(res.InvariantViolations, fmt.Sprintf(format, args...))
	}
	if d := h.tr.Dropped(); d > 0 {
		fail("trace ring dropped %d events; raise TraceCapacity", d)
		return
	}
	events := h.tr.Events()
	if err := trace.CheckWQECQE(events); err != nil {
		fail("WQE/CQE pairing: %v", err)
	}
	switch cfg.RegMode {
	case memreg.Regular, memreg.FMR:
		// A mode that registers per call ends each client exposure with
		// its RPC.
		if err := trace.CheckExposureBounds(events); err != nil {
			fail("MR exposure bounds: %v", err)
		}
	default:
		// All-physical and the cache keep a standing registration instead,
		// and once the run is idle a client exposes exactly it: the global
		// region, or the chunks the cache keeps (a Read-Read client, whose
		// server exposes and whose calls pull, advertises none of them).
		for _, cl := range h.Cluster.Clients {
			want := cl.Mgr.CachedBytes()
			switch {
			case cfg.RegMode == memreg.AllPhysical:
				want = int64(cl.Node.HCA.GlobalMR().Length())
			case cfg.Design == rpcrdma.ReadRead:
				want = 0
			}
			if got := cl.Node.HCA.RemoteExposedBytes(); got != want {
				fail("standing exposure: %s exposes %d bytes once idle, want the %d %v keeps", cl.Node.Name(), got, want, cfg.RegMode)
			}
		}
	}
	// A Read-Read server exposes each reply until its RDMA_DONE, so once
	// idle no more than its mode keeps: nothing, the global region, or at
	// most the chunks its cache holds (some were staged local-only).
	if srv := h.Cluster.Server; cfg.Design == rpcrdma.ReadRead {
		want := int64(0)
		switch cfg.RegMode {
		case memreg.AllPhysical:
			want = int64(srv.Node.HCA.GlobalMR().Length())
		case memreg.Cache:
			want = srv.Mgr.CachedBytes()
		}
		if got := srv.Node.HCA.RemoteExposedBytes(); got > want {
			fail("standing exposure: the server exposes %d bytes once idle, want at most the %d %v keeps", got, want, cfg.RegMode)
		}
	}
	// The server side must stay unexposed in both designs that avoid
	// server-advertised chunks: Read-Write (the paper's §4 claim) and
	// reply-fetch (the server only ever Writes into client-owned slots),
	// unless all-physical's global region exposes all of it by design.
	// Read-Read exposes the server by construction; reply-fetch instead
	// exposes the *clients*, bounded above.
	if (cfg.Design == rpcrdma.ReadWrite || cfg.Design == rpcrdma.ReplyFetch) && cfg.RegMode != memreg.AllPhysical {
		if err := trace.CheckNoRemoteExposure(events, "server"); err != nil {
			fail("remote exposure: %v", err)
		}
	}
}
