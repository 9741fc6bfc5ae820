package adversary

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
)

// cluster is the chaos run an attack joins: seed, design, registration mode
// and client count, multiplexed connections (affinity on) or not, and how
// many generated faults.
func cluster(seed uint64, design rpcrdma.Design, mode memreg.Mode, clients int, mux bool, faults int) chaos.Config {
	return chaos.Config{Config: core.Config{Seed: seed, Design: design, RegMode: mode,
		Clients: clients, Multiplex: mux, Affinity: mux}, Faults: faults}
}

// scanConfig is the rkey-scan experiment: attacker only scans, victims run
// the integrity-checked load.
func scanConfig(mode memreg.Mode, hardened bool) Config {
	return Config{
		Config:      cluster(7, rpcrdma.ReadRead, mode, 2, false, 0),
		Hardened:    hardened,
		Attacks:     AttackRkeyScan,
		ProbeBudget: 1200,
	}
}

// TestAllPhysicalTTC is the paper's §4.3 security ranking made executable:
// the all-physical strategy's single global steering tag falls to an
// enumerating scanner orders of magnitude faster than per-I/O regular
// registration, whose keys are transient and always ahead of the scan.
func TestAllPhysicalTTC(t *testing.T) {
	ap := Run(scanConfig(memreg.AllPhysical, false))
	if !ap.Compromised {
		t.Fatalf("all-physical + sequential rkeys must fall to the scan: %s", ap.Fingerprint)
	}
	if ap.WriteHits == 0 {
		t.Fatalf("all-physical global key is writable; spray must land: %s", ap.Fingerprint)
	}
	reg := Run(scanConfig(memreg.Regular, false))
	if reg.Compromised && reg.TimeToCompromise < ap.TimeToCompromise*100 {
		t.Fatalf("regular registration fell too fast: ttc=%d vs all-physical %d",
			reg.TimeToCompromise, ap.TimeToCompromise)
	}
	if ap.TimeToCompromise*100 > reg.TimeToCompromise {
		t.Fatalf("want all-physical TTC (%d) two orders of magnitude under regular (censored %d)",
			ap.TimeToCompromise, reg.TimeToCompromise)
	}
}

// TestHardenedRandomizedKeysResistScan: with randomized allocation even the
// global all-physical key hides in a 2^32 space; a budget-bounded scan must
// not land.
func TestHardenedRandomizedKeysResistScan(t *testing.T) {
	r := Run(scanConfig(memreg.AllPhysical, true))
	if r.Compromised {
		t.Fatalf("scan compromised hardened all-physical: %s", r.Fingerprint)
	}
	if r.ProbeHits != 0 || r.WriteHits != 0 {
		t.Fatalf("no probe may land under randomized rkeys: %s", r.Fingerprint)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("victims corrupted: %v", r.Violations)
	}
}

// TestServersSurviveScanAndSpoof: the Read-Write and reply-fetch servers
// never advertise server memory, and hardened DONE handling verifies
// ownership — scanning plus forged DONEs must produce zero oracle
// violations and zero cross-client frees.
func TestServersSurviveScanAndSpoof(t *testing.T) {
	for _, design := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReplyFetch} {
		cfg := Config{
			Config:   cluster(11, design, memreg.Regular, 2, false, 0),
			Hardened: true,
			Attacks:  AttackRkeyScan | AttackSpoofDone,
		}
		r := Run(cfg)
		if len(r.Violations) != 0 {
			t.Fatalf("%v: oracle violations under attack: %v", design, r.Violations)
		}
		if r.CrossClientFrees != 0 {
			t.Fatalf("%v: cross-client frees: %s", design, r.Fingerprint)
		}
		if r.Compromised {
			t.Fatalf("%v: hardened server compromised: %s", design, r.Fingerprint)
		}
		if r.Load.WritesAcked == 0 {
			t.Fatalf("%v: victim load did not run: %s", design, r.Fingerprint)
		}
	}
}

// TestQuarantineScopedToAttacker: on a shared multiplexed QP, misbehavior
// scoring must terminate only the attacker's endpoint — victims on the same
// QP see no reconnects and no corruption while the server racks up
// quarantines.
func TestQuarantineScopedToAttacker(t *testing.T) {
	r := Run(Config{
		Config:      cluster(5, rpcrdma.ReadRead, memreg.Regular, 3, true, 0),
		Hardened:    true,
		Attacks:     AttackSpoofDone,
		SpoofBudget: 64,
	})
	if r.Quarantines == 0 {
		t.Fatalf("spoof burst must trip quarantine: %s", r.Fingerprint)
	}
	if r.SpoofDrops == 0 {
		t.Fatalf("forged stream claims must be dropped: %s", r.Fingerprint)
	}
	if r.VictimRecon != 0 {
		t.Fatalf("an innocent endpoint was killed (victim reconnects=%d): %s", r.VictimRecon, r.Fingerprint)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("victims corrupted: %v", r.Violations)
	}
	if r.CrossClientFrees != 0 {
		t.Fatalf("hardened server freed cross-client: %s", r.Fingerprint)
	}
	if r.Load.WritesAcked == 0 {
		t.Fatalf("victim load did not complete: %s", r.Fingerprint)
	}
}

// TestVulnerableMuxSpoofMeasured: with trusted stream claims the same spoof
// burst reaches the DONE handler impersonating victims; the run must record
// the traffic (rejected or freed) rather than silently dropping it.
func TestVulnerableMuxSpoofMeasured(t *testing.T) {
	r := Run(Config{
		Config:      cluster(5, rpcrdma.ReadRead, memreg.Regular, 3, true, 0),
		Hardened:    false,
		Attacks:     AttackSpoofDone,
		SpoofBudget: 64,
	})
	if r.SpoofSent == 0 {
		t.Fatalf("no spoofs sent: %s", r.Fingerprint)
	}
	if r.SpoofDrops != 0 {
		t.Fatalf("trusting server must not drop spoofs: %s", r.Fingerprint)
	}
	if r.Quarantines != 0 {
		t.Fatalf("vulnerable posture has no quarantine: %s", r.Fingerprint)
	}
	if r.DoneRejected+r.CrossClientFrees == 0 {
		t.Fatalf("forged DONEs disappeared without trace: %s", r.Fingerprint)
	}
}

// TestAttackUnderChaos composes the full attack suite with a generated
// fault schedule. The hardened stack must keep every victim's data intact
// while faults and the attacker interleave.
func TestAttackUnderChaos(t *testing.T) {
	r := Run(Config{Config: cluster(3, rpcrdma.ReadWrite, memreg.Regular, 2, false, 4), Hardened: true, Attacks: AttackAll})
	if r.FaultCount == 0 {
		t.Fatalf("no faults composed: %s", r.Fingerprint)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("oracle violations under attack+chaos: %v", r.Violations)
	}
	if r.Compromised {
		t.Fatalf("hardened stack compromised under chaos: %s", r.Fingerprint)
	}
}

// TestDeterminism: identical configs must produce byte-identical runs.
func TestDeterminism(t *testing.T) {
	configs := []Config{
		scanConfig(memreg.AllPhysical, false),
		{Config: cluster(5, rpcrdma.ReadRead, memreg.Regular, 3, true, 3), Hardened: true, Attacks: AttackAll},
		{Config: cluster(9, rpcrdma.ReplyFetch, memreg.FMR, 2, false, 0), Hardened: false, Attacks: AttackAll},
	}
	for i, cfg := range configs {
		a, b := Run(cfg), Run(cfg)
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("config %d not deterministic:\n  %s\n  %s", i, a.Fingerprint, b.Fingerprint)
		}
	}
}

// TestDRCForgeIsolatedByPeerKeying: the forged-credential attack floods the
// duplicate request cache under the victim's machine name; hardened keying
// pins those entries to the transport-authenticated peer, so victims stay
// clean.
func TestDRCForgeIsolatedByPeerKeying(t *testing.T) {
	r := Run(Config{
		Config:      cluster(13, rpcrdma.ReadWrite, memreg.Regular, 2, false, 0),
		Hardened:    true,
		Attacks:     AttackDRCForge,
		ForgeBudget: 24,
	})
	if r.ForgeSent == 0 {
		t.Fatalf("forged calls did not run: %s", r.Fingerprint)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("peer-keyed DRC leaked attacker entries to victims: %v", r.Violations)
	}
}

// TestClusterSetUpSurvivesFaults: an explicit fault schedule is armed in
// absolute time, so it can hit cluster set-up (the MOUNT included), and the
// recovery policy set in the cluster's configuration rides it out like any
// other call. Every design, registration mode and connection mode, with and
// without faults, over four seeds: no run may die in set-up.
func TestClusterSetUpSurvivesFaults(t *testing.T) {
	var died []string
	for _, design := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
		for _, mode := range []memreg.Mode{memreg.Regular, memreg.FMR, memreg.AllPhysical, memreg.Cache} {
			for _, mux := range []bool{false, true} {
				for _, faults := range []int{0, 4} {
					for seed := uint64(1); seed <= 4; seed++ {
						cfg := Config{Config: cluster(seed, design, mode, 0, mux, 0)}
						sched := chaos.Generate(seed, chaos.GenConfig{Faults: faults, Clients: 2})
						cfg.Schedule = &sched
						func() {
							defer func() {
								if err := recover(); err != nil {
									first, _, _ := strings.Cut(fmt.Sprint(err), "\n")
									died = append(died, fmt.Sprintf("%v/%v/mux=%t/faults=%d/seed=%d: %s", design, mode, mux, faults, seed, first))
								}
							}()
							Run(cfg)
						}()
					}
				}
			}
		}
	}
	if len(died) > 0 {
		t.Errorf("%d of 192 runs died:\n%s", len(died), strings.Join(died, "\n"))
	}
}
