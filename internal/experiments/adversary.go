package experiments

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
)

// AdversaryPoint is one (design, registration mode) cell of the attack
// sweep, run in both security postures.
type AdversaryPoint struct {
	Design   rpcrdma.Design
	Mode     memreg.Mode
	Vuln     *adversary.Result
	Hardened *adversary.Result
}

// Adversary is the attack-sweep result.
type Adversary struct {
	Points []AdversaryPoint
	Table  *stats.Table
}

// ttcCell renders a time-to-compromise column: a censored value (the run
// ended uncompromised) prints as a lower bound.
func ttcCell(r *adversary.Result) string {
	if !r.Compromised {
		return fmt.Sprintf(">%v", time.Duration(r.FinalTime))
	}
	return fmt.Sprintf("%v via %s", time.Duration(r.TimeToCompromise), r.CompromiseVia)
}

// RunAdversary sweeps the rkey-scanning attack (with stale-window re-probes
// of every discovered key) across every transfer design and registration
// mode, once against the vulnerable posture
// (sequential rkeys, trusted stream claims, credential-keyed DRC) and once
// hardened. The table is the paper's security argument made measurable:
// all-physical falls to a scan almost immediately, regular registration's
// transient windows resist it, and the hardened stack holds every cell with
// zero victim corruption.
func RunAdversary(scale Scale) *Adversary {
	out := &Adversary{
		Table: stats.NewTable("Adversary sweep: rkey scan + stale-window probes per design x registration mode, vulnerable vs hardened posture",
			"design", "regmode", "ttc (vuln)", "ttc (hardened)", "probes", "xfrees v/h", "blast v/h", "quarantines"),
	}
	// The probe budget must stay large enough that the regular-registration
	// runs are clearly censored — that censoring IS the measurement the
	// all-physical comparison is made against.
	probes := int(scale.div64(4800))
	if probes < 1200 {
		probes = 1200
	}
	modes := []memreg.Mode{memreg.Regular, memreg.FMR, memreg.Cache, memreg.AllPhysical}
	cells := runner.Grid(len(allDesigns), len(modes), 2)

	results := pmap(len(cells), func(i int) *adversary.Result {
		c := cells[i]
		return adversary.Run(adversary.Config{
			Config: chaos.Config{Config: core.Config{Seed: uint64(17 + c[0]*len(modes) + c[1]),
				Design: allDesigns[c[0]], RegMode: modes[c[1]], Clients: 2}},
			Hardened: c[2] == 1,
			// Scan + stale-window probing only: the scan must start at
			// warmup for time-to-compromise to measure the registration
			// mode rather than the attack schedule. Spoofed DONEs and
			// forged credentials have dedicated experiments in the
			// adversary package itself.
			Attacks:     adversary.AttackRkeyScan | adversary.AttackStaleProbe,
			ProbeBudget: probes,
		})
	})

	for i := 0; i < len(cells); i += 2 {
		c := cells[i]
		pt := AdversaryPoint{
			Design: allDesigns[c[0]], Mode: modes[c[1]],
			Vuln: results[i], Hardened: results[i+1],
		}
		out.Points = append(out.Points, pt)
		out.Table.AddRow(pt.Design.String(), pt.Mode.String(),
			ttcCell(pt.Vuln), ttcCell(pt.Hardened),
			fmt.Sprintf("%d/%d", pt.Vuln.ProbeHits, pt.Vuln.Probes),
			fmt.Sprintf("%d/%d", pt.Vuln.CrossClientFrees, pt.Hardened.CrossClientFrees),
			fmt.Sprintf("%d/%d", pt.Vuln.BlastRadius, pt.Hardened.BlastRadius),
			pt.Hardened.Quarantines)
	}
	return out
}

// FastestCompromise returns the shortest vulnerable-posture TTC for mode
// across all designs, censored values included.
func (a *Adversary) FastestCompromise(mode memreg.Mode) des.Time {
	best := des.Time(1<<62 - 1)
	for _, pt := range a.Points {
		if pt.Mode == mode && pt.Vuln.TimeToCompromise < best {
			best = pt.Vuln.TimeToCompromise
		}
	}
	return best
}
