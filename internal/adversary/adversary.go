// Package adversary is the executable threat model of the paper's §6
// security discussion (and of NeVerMore's attack taxonomy for RDMA storage
// protocols): a deterministic attacker node — "mallory" — joins a live
// cluster next to honest clients and runs the attack classes an RPC/RDMA
// NFS actually faces:
//
//   - rkey scanning: guessing steering tags and addresses and issuing raw
//     one-sided Reads/Writes against whatever the server's HCA has exposed,
//     measuring how each registration strategy of §4.3 changes the search
//     space (all-physical's single global tag is spectacularly bad);
//   - spoofed RDMA_DONE: forging the Read-Read design's completion message
//     with guessed XIDs — and, on a shared multiplexed QP, forged stream
//     claims — to free another client's parked replies out from under it;
//   - DRC forgery: replaying and pre-priming the duplicate request cache
//     with a forged client credential so a victim's retransmission is
//     answered from the attacker's poisoned entry;
//   - stale-buffer reads: re-using previously valid rkeys after the owner
//     deregistered, probing the FMR remap window.
//
// Each run reports time-to-compromise (virtual time until the first
// unauthorized read, write, or free succeeds) and blast radius (how many
// victim clients the integrity oracle saw corrupted), per transfer design
// and registration mode. All attacker randomness comes from one seeded
// des.Rand stream, so runs are byte-identical for a given Config (see
// Result.Fingerprint).
//
// The same package measures the hardening that closes each hole: randomized
// steering tags (the default; Config.Hardened=false re-opens sequential
// allocation), fabric-authenticated stream sources (CQE.SrcStream),
// transport-authenticated DRC keying (DispatchOpts.Peer), FMR key rotation,
// and per-endpoint misbehavior scoring that quarantines only the attacker's
// endpoint on a shared QP.
package adversary

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/workload"
)

// Attack selects attack classes; combine with bitwise or.
type Attack int

// Attack classes.
const (
	// AttackRkeyScan guesses (rkey, address) pairs and issues raw one-sided
	// RDMA Reads against the server, escalating to a Write spray on the
	// first hit.
	AttackRkeyScan Attack = 1 << iota
	// AttackSpoofDone sends forged RDMA_DONE messages with guessed XIDs —
	// and forged stream claims on a shared QP — to free victims' parked
	// replies.
	AttackSpoofDone
	// AttackDRCForge connects with a forged client credential and pre-primes
	// the duplicate request cache at the victim's future XIDs.
	AttackDRCForge
	// AttackStaleProbe replays rkeys discovered by the scan after their
	// owners' I/O windows closed, probing deregistration and FMR remap.
	AttackStaleProbe

	// AttackAll runs every class.
	AttackAll = AttackRkeyScan | AttackSpoofDone | AttackDRCForge | AttackStaleProbe
)

// Config parameterizes one adversary run: a chaos run (the embedded
// chaos.Config — its cluster, its honest clients running the
// integrity-checked load, and any fault schedule composed under the attack)
// plus the mallory node running the selected attacks. Multiplex defaults
// ServerShards to 1, so every endpoint — victims and attacker — shares one
// QP, the worst case for stream spoofing. The cluster's Security follows
// Hardened.
type Config struct {
	chaos.Config

	// Hardened selects the defended posture: randomized rkey allocation,
	// FMR key rotation, fabric-authenticated stream claims, transport-
	// authenticated DRC keying, and misbehavior quarantine. False re-opens
	// every pre-hardening hole (sequential rkeys, trusted stream claims,
	// credential-keyed DRC, no quarantine) so the attacks can land.
	Hardened bool

	// Attacks is the class selection; zero means AttackAll.
	Attacks Attack

	// Budgets bound each attack: rkey-scan probes, forged DONEs, forged
	// DRC-priming writes.
	ProbeBudget int
	SpoofBudget int
	ForgeBudget int
}

func (c *Config) defaults() {
	if c.Multiplex && c.ServerShards <= 0 {
		c.ServerShards = 1
	}
	if c.Attacks == 0 {
		c.Attacks = AttackAll
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 256
	}
	if c.SpoofBudget <= 0 {
		c.SpoofBudget = 64
	}
	if c.ForgeBudget <= 0 {
		c.ForgeBudget = 16
	}
}

// Result is one adversary run's outcome. Counters split into what the
// attacker observed (probes, hits, spoofs sent) and what the server's
// defenses recorded (rejects, drops, quarantines); the oracle supplies the
// ground truth on victim damage.
type Result struct {
	// Compromised reports whether any unauthorized read, write, or free
	// succeeded; TimeToCompromise is the virtual time of the first success,
	// censored to FinalTime when the run ended uncompromised (so comparisons
	// across configurations stay well-defined).
	Compromised      bool
	TimeToCompromise des.Time
	CompromiseVia    string

	// Attacker-side counters.
	Probes     int64 // raw one-sided read probes issued
	ProbeHits  int64 // probes that read server memory
	WriteHits  int64 // unauthorized one-sided writes that landed
	Reconnects int64 // attacker redials after protection faults/quarantine
	SpoofSent  int64 // forged DONE messages sent
	ForgeSent  int64 // forged-credential calls that completed
	ForgeFails int64 // forged-credential calls that errored
	StaleSent  int64 // replays of previously discovered rkeys
	StaleHits  int64 // replays that still read memory (remap window)

	// Server-side defense counters (mirrors of rpcrdma.ServerTransport;
	// after a composed server crash they cover the post-restart transport
	// only).
	DoneRecv         int64
	DoneRejected     int64
	CrossClientFrees int64
	SpoofDrops       int64
	Quarantines      int64

	// Victim ground truth.
	Violations []string
	// BlastRadius is the number of distinct victim clients whose oracle
	// records were corrupted (parsed from violation file names).
	BlastRadius int
	Load        workload.ChaosLoadResult
	VictimRecon int64 // honest clients' reconnects (attribution check)
	Crashes     int64 // composed chaos crashes
	FaultCount  int   // composed chaos faults applied

	FinalTime des.Time

	// Fingerprint condenses every counter and the final virtual time; equal
	// fingerprints mean byte-identical runs.
	Fingerprint string
}

// Run executes one seeded adversary run and returns its result. Identical
// configs produce identical results (see Result.Fingerprint).
func Run(cfg Config) *Result {
	cfg.defaults()
	cfg.Security = core.SecurityVulnerable
	if cfg.Hardened {
		cfg.Security = core.SecurityHardened
	}
	h := chaos.Start(cfg.Config)
	cluster := h.Cluster

	// The attacker host joins the same fabric as one more client-class
	// node. Its HCA follows the cluster's rkey-allocation policy (the
	// policy under attack is the server's, but keeping the fabric uniform
	// keeps fingerprints honest).
	malloryCfg := cfg.Security.Node(cluster.Cfg.Profile.Client)
	malloryCfg.Name = "mallory"
	seed := cluster.Cfg.Seed
	malloryCfg.Seed = seed*7919 + 13
	res := &Result{}
	atk := &attacker{
		cfg:     &cfg,
		cluster: cluster,
		node:    cluster.Fabric.AddNode(malloryCfg),
		rng:     des.NewRand(seed*0xAD5E + 3),
		res:     res,
	}
	cluster.Start("mallory", atk.run)

	victims := h.Finish()
	res.FinalTime = victims.FinalTime
	if !res.Compromised {
		res.TimeToCompromise = res.FinalTime
	}
	res.Violations = victims.Violations
	res.BlastRadius = blastRadius(h.Oracle.Violations, len(cluster.Clients))
	res.Load = victims.Load
	res.Crashes = victims.Crashes
	res.VictimRecon = victims.Reconnects
	res.FaultCount = len(victims.Schedule.Faults)
	if srv := cluster.Server.RDMA; srv != nil {
		res.DoneRecv = srv.DoneRecv
		res.DoneRejected = srv.DoneRejected
		res.CrossClientFrees = srv.CrossClientFrees
		res.SpoofDrops = srv.SpoofDrops
		res.Quarantines = srv.Quarantines
	}

	res.Fingerprint = fmt.Sprintf(
		"t=%d ttc=%d comp=%t probes=%d/%d wr=%d rc=%d spoof=%d forge=%d/%d stale=%d/%d done=%d/%d xfree=%d drop=%d quar=%d wa=%d wf=%d reads=%d vrc=%d crash=%d blast=%d viol=%d",
		int64(res.FinalTime), int64(res.TimeToCompromise), res.Compromised,
		res.Probes, res.ProbeHits, res.WriteHits, res.Reconnects,
		res.SpoofSent, res.ForgeSent, res.ForgeFails, res.StaleSent, res.StaleHits,
		res.DoneRecv, res.DoneRejected, res.CrossClientFrees, res.SpoofDrops, res.Quarantines,
		res.Load.WritesAcked, res.Load.WritesFailed, res.Load.ReadsChecked,
		res.VictimRecon, res.Crashes, res.BlastRadius, len(res.Violations))
	return res
}

// blastRadius counts distinct victim clients named in oracle violations.
// The chaos workload writes per-client files "chaos.c<i>", so corruption
// attributes directly to its victim.
func blastRadius(violations []string, clients int) int {
	hit := 0
	for i := 0; i < clients; i++ {
		tag := fmt.Sprintf("chaos.c%d", i)
		for _, v := range violations {
			if strings.Contains(v, tag) {
				hit++
				break
			}
		}
	}
	return hit
}
