package chaos

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes one chaos run: a fully wired cluster, the chaos
// workload, and a fault schedule (generated from Seed unless an explicit
// Schedule — e.g. a shrinker candidate — is supplied).
type Config struct {
	Seed   uint64
	Design rpcrdma.Design
	Shards int // server dispatch shards (0 = per-connection receive path)

	// Multiplex runs the server's shared-QP connection mode: clients attach
	// DCT-style endpoints demultiplexed by stream id. Faults then exercise
	// the endpoint-scoped error paths — a killed client must not take its
	// shared QP's siblings with it, and crash/restart must rebuild the
	// shared QPs. Implies sharded dispatch.
	Multiplex bool

	// Affinity pins shard reply processing to the completion CPU.
	Affinity bool

	Clients int

	// Faults/MaxCrashes/Horizon feed the schedule generator, whose defaults
	// apply (see GenConfig).
	Faults     int
	MaxCrashes int
	Horizon    des.Duration

	// Schedule overrides generation: the exact fault list to apply
	// (shrinking replays candidates this way). Seed is still used for the
	// cluster's own randomness.
	Schedule *Schedule

	// DisableDRC turns the server's duplicate request cache off — the
	// deliberately-broken-server ablation the oracle must catch (replayed
	// RENAMEs re-execute and surface illegal ENOENTs).
	DisableDRC bool

	// TraceCapacity > 0 enables tracing and runs the trace invariant
	// checkers (WQE/CQE pairing, MR exposure bounds, and — Read-Write only
	// — no remote exposure of server memory) after the run.
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
	Retransmits         int64
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
// swallowed by a crash) time out and retransmit instead of hanging. The
// adversary engine's victims run on it too.
func Profile() profiles.Profile {
	prof := profiles.LinuxSDR()
	prof.RDMAClient.CallTimeout = 1 * time.Millisecond
	prof.RDMAClient.RetryLimit = 4
	return prof
}

// Policy is the recovery budget: generous enough to ride out every outage a
// generated schedule can produce, so terminal failures stay rare and the
// oracle's pending sets stay small.
func Policy() core.RetryPolicy {
	return core.RetryPolicy{
		MaxReconnects: 40,
		Backoff:       50 * time.Microsecond,
		MaxBackoff:    1 * time.Millisecond,
	}
}

// Run executes one seeded chaos run and returns its result. Identical
// configs produce identical results (see Result.Fingerprint).
func Run(cfg Config) *Result {
	cfg.defaults()
	drcEntries := 0
	if cfg.DisableDRC {
		drcEntries = -1
	}
	cluster := core.NewCluster(core.Config{
		Profile:      Profile(),
		Transport:    core.TransportRDMA,
		Design:       cfg.Design,
		Clients:      cfg.Clients,
		Backend:      core.BackendTmpfs,
		CopyData:     true, // integrity checking needs real bytes
		DRCEntries:   drcEntries,
		ServerShards: cfg.Shards,
		Multiplex:    cfg.Multiplex,
		Affinity:     cfg.Affinity,
		Seed:         cfg.Seed,
	})
	var tr *trace.Tracer
	if cfg.TraceCapacity > 0 {
		tr = cluster.EnableTracing(cfg.TraceCapacity)
	}
	if cfg.TelemetryInterval > 0 {
		cluster.EnableTelemetry(telemetry.Options{Interval: cfg.TelemetryInterval})
	}

	oracle := NewOracle()
	sched := Generate(cfg.Seed, GenConfig{
		Faults:     cfg.Faults,
		Clients:    cfg.Clients,
		Horizon:    cfg.Horizon,
		MaxCrashes: cfg.MaxCrashes,
	})
	if cfg.Schedule != nil {
		sched = *cfg.Schedule
	}
	sched.Apply(cluster, oracle)

	res := &Result{Schedule: sched}
	cluster.Start("chaos", func(p *des.Proc) {
		for _, cl := range cluster.Clients {
			cl.EnableRecovery(Policy())
		}
		load, err := workload.RunChaosLoad(p, cluster, oracle)
		if err != nil {
			oracle.Violation("workload error: %v", err)
		}
		res.Load = load
	})
	res.FinalTime = cluster.RunUntil(des.Time(10 * time.Second))

	res.Violations = oracle.Report()
	res.Crashes = cluster.Crashes
	tot := &cluster.Totals
	res.Reconnects, res.Replays = tot.Reconnects, tot.Replays
	res.Timeouts, res.Retransmits = tot.RDMA.Timeouts, tot.RDMA.Retransmits
	res.DRCHits, res.DRCMisses = cluster.Server.Dispatcher.DRCStats()
	res.WritesIssued = oracle.WritesIssued
	res.OracleReads = oracle.ReadsChecked
	res.OracleRenameENOENTs = oracle.RenameChecks

	if tr != nil {
		res.checkInvariants(tr, cfg.Design)
	}
	if tel := cluster.Telemetry(); tel != nil {
		res.Report = tel.Report()
		res.Report.Findings = append(res.Report.Findings,
			res.Report.AnnotateFaults(sched.FaultWindows(), "workload.writes_acked")...)
	}

	res.Fingerprint = fmt.Sprintf(
		"t=%d crashes=%d rc=%d rp=%d to=%d rt=%d drc=%d/%d wi=%d wa=%d wf=%d reads=%d ren=%d/%d/%d viol=%d inv=%d",
		int64(res.FinalTime), res.Crashes, res.Reconnects, res.Replays,
		res.Timeouts, res.Retransmits, res.DRCHits, res.DRCMisses,
		res.WritesIssued, res.Load.WritesAcked, res.Load.WritesFailed,
		res.OracleReads, res.Load.RenamesOK, res.Load.RenameENOENTs, res.Load.RenamesFailed,
		len(res.Violations), len(res.InvariantViolations))
	return res
}

// checkInvariants runs the PR 3 trace invariant checkers over the run's
// event stream. A full ring (dropped events) makes pairing checks
// unreliable, so it is itself reported instead of false positives.
func (res *Result) checkInvariants(tr *trace.Tracer, design rpcrdma.Design) {
	if d := tr.Dropped(); d > 0 {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("trace ring dropped %d events; raise TraceCapacity", d))
		return
	}
	events := tr.Events()
	if err := trace.CheckWQECQE(events); err != nil {
		res.InvariantViolations = append(res.InvariantViolations, fmt.Sprintf("WQE/CQE pairing: %v", err))
	}
	if err := trace.CheckExposureBounds(events); err != nil {
		res.InvariantViolations = append(res.InvariantViolations, fmt.Sprintf("MR exposure bounds: %v", err))
	}
	// The server side must stay unexposed in both designs that avoid
	// server-advertised chunks: Read-Write (the paper's §4 claim) and
	// reply-fetch (the server only ever Writes into client-owned slots).
	// Read-Read exposes the server by construction; reply-fetch instead
	// exposes the *clients*, which CheckExposureBounds above still bounds
	// to each RPC's lifetime.
	if design == rpcrdma.ReadWrite || design == rpcrdma.ReplyFetch {
		if err := trace.CheckNoRemoteExposure(events, "server"); err != nil {
			res.InvariantViolations = append(res.InvariantViolations, fmt.Sprintf("remote exposure: %v", err))
		}
	}
}
