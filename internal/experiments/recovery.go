package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
)

// RecoveryPoint is one measured fault-rate configuration.
type RecoveryPoint struct {
	Faults     int
	Design     rpcrdma.Design
	WriteMBps  float64
	Reconnects int64
	Replays    int64
	// Transport-level fault evidence: call timeouts and retransmissions
	// accumulated across every connection the client used (reconnects swap
	// transports; TransportStats banks the retired counters), plus server
	// RDMA Write attempts cut short by a dying connection.
	Timeouts    int64
	Retransmits int64
	ShortWrites int64
	// ServerWrites is the number of WRITE procedures the server actually
	// executed; equality with the number issued proves the duplicate
	// request cache suppressed every replayed side effect.
	ServerWrites int64
	WritesIssued int64
	DataOK       bool
}

// Recovery is the fault-injection ablation result.
type Recovery struct {
	Points []RecoveryPoint
	Table  *stats.Table
}

// RunRecovery sweeps injected connection failures against all three
// transfer designs and reports throughput degradation alongside correctness
// evidence: every byte of a two-pass overwrite workload (plus a rename
// chain of non-idempotent metadata operations) must land exactly once,
// with the transparent reconnect/replay layer absorbing every fault.
//
// Faults fire at fixed workload milestones (after every total/(n+1)
// completed writes) rather than at wall-clock offsets, so every scale and
// fault count puts the failures mid-burst, with calls in flight.
func RunRecovery(scale Scale) *Recovery {
	out := &Recovery{
		Table: stats.NewTable("Recovery ablation: injected connection failures, 4 writers, 128 KiB records, Linux profile",
			"faults", "design", "write MB/s", "reconnects", "replays", "timeouts", "retrans", "shortw", "WRITEs exec/issued", "data"),
	}
	faultCounts := []int{0, 1, 3, 6}
	fileSize := scale.div64(8 << 20)
	pts := runner.Grid(len(faultCounts), len(allDesigns))
	results := pmap(len(pts), func(i int) RecoveryPoint {
		c := pts[i]
		return runRecoveryPoint(faultCounts[c[0]], allDesigns[c[1]], fileSize)
	})
	for i, c := range pts {
		r := results[i]
		ok := "ok"
		if !r.DataOK {
			ok = "CORRUPT"
		}
		out.Points = append(out.Points, r)
		out.Table.AddRow(faultCounts[c[0]], r.Design.String(), r.WriteMBps,
			r.Reconnects, r.Replays, r.Timeouts, r.Retransmits, r.ShortWrites,
			fmt.Sprintf("%d/%d", r.ServerWrites, r.WritesIssued), ok)
	}
	return out
}

// runRecoveryPoint runs one cluster: two full write passes over the file
// (so every record is overwritten — a replayed duplicate WRITE from pass 1
// executing during pass 2 would corrupt data), a rename chain between the
// passes, and a byte-exact read-back of the final contents.
func runRecoveryPoint(faults int, design rpcrdma.Design, fileSize int64) RecoveryPoint {
	const (
		workers = 4
		recSize = 128 << 10
	)
	records := int(fileSize / recSize)
	if records < workers {
		records = workers
	}
	const renames = 8
	totalWrites := 2 * records

	prof := profiles.LinuxSDR()
	prof.RDMAClient.CallTimeout = 5 * time.Millisecond
	prof.RDMAClient.RetryLimit = 6
	cluster := core.NewCluster(core.Config{
		Profile: prof, Transport: core.TransportRDMA,
		Design: design, RegMode: memreg.Regular, CopyData: true,
	})
	cl := cluster.Clients[0]

	// Milestones: fault k fires when the (k+1)*total/(n+1)-th write
	// completes, spreading failures through both passes.
	milestones := make([]int, faults)
	for k := range milestones {
		milestones[k] = (k + 1) * totalWrites / (faults + 1)
	}
	completed, fired := 0, 0
	afterWrite := func() {
		completed++
		// Fire at most one fault per completion, and only on a healthy
		// QP; a milestone crossed while the transport is already errored
		// (several same-instant completions — reply-fetch doorbell wakes
		// batch more than the Send paths) defers to the next completion
		// rather than being silently dropped, so every scheduled fault
		// lands exactly once.
		if fired < len(milestones) && completed >= milestones[fired] {
			if qp := cl.RDMA.QP(); qp.Err() == nil {
				qp.InjectError(nil)
				fired++
			}
		}
	}

	fill := func(pass, rec int) byte { return byte(1 + pass*97 + rec) }
	pt := RecoveryPoint{Faults: faults, Design: design, WritesIssued: int64(totalWrites), DataOK: true}

	cluster.Start("recovery-driver", func(p *des.Proc) {
		cl.EnableRecovery(core.RetryPolicy{})
		f, err := cl.Create(p, "data")
		if err != nil {
			panic(fmt.Sprintf("recovery: create: %v", err))
		}
		sim := p.Sim()
		writePass := func(pass int) {
			events := make([]*des.Event, workers)
			for w := 0; w < workers; w++ {
				w := w
				ev := des.NewEvent(sim)
				events[w] = ev
				sim.Spawn(fmt.Sprintf("rec-writer-%d", w), func(wp *des.Proc) {
					defer ev.Fire(nil)
					buf := cl.NewMaterializedBuffer(recSize)
					for rec := w; rec < records; rec += workers {
						b := buf.Bytes()
						for i := range b {
							b[i] = fill(pass, rec)
						}
						n, err := f.WriteAt(wp, buf, 0, int64(rec)*recSize, recSize, true)
						if err != nil || n != recSize {
							panic(fmt.Sprintf("recovery: pass %d write %d: n=%d err=%v", pass, rec, n, err))
						}
						afterWrite()
					}
				})
			}
			des.WaitAll(p, events...)
		}

		start := p.Now()
		writePass(0)

		// A chain of renames: each is non-idempotent, so a re-executed
		// replay would fail (source name gone) and break the chain.
		if _, err := cl.Create(p, "chain0"); err != nil {
			panic(fmt.Sprintf("recovery: chain create: %v", err))
		}
		for i := 0; i < renames; i++ {
			from, to := fmt.Sprintf("chain%d", i), fmt.Sprintf("chain%d", i+1)
			if err := cl.NFS.Rename(p, cl.Root, from, cl.Root, to); err != nil {
				panic(fmt.Sprintf("recovery: rename %s->%s: %v", from, to, err))
			}
		}

		writePass(1)
		elapsed := p.Now() - start
		pt.WriteMBps = stats.MBps(int64(totalWrites)*recSize, elapsed.Seconds())

		// Verify: final bytes are pass-1 fills, the rename chain ended at
		// its final link, and no intermediate name survived.
		rbuf := cl.NewMaterializedBuffer(recSize)
		for rec := 0; rec < records; rec++ {
			n, _, err := f.ReadAt(p, rbuf, 0, int64(rec)*recSize, recSize, false)
			if err != nil || n != recSize {
				pt.DataOK = false
				break
			}
			for _, got := range rbuf.Bytes() {
				if got != fill(1, rec) {
					pt.DataOK = false
					break
				}
			}
		}
		if _, err := cl.Open(p, fmt.Sprintf("chain%d", renames)); err != nil {
			pt.DataOK = false
		}
		if _, err := cl.Open(p, "chain0"); err == nil {
			pt.DataOK = false
		}
		pt.Reconnects, pt.Replays = cl.RecoveryStats()
		pt.Timeouts, pt.Retransmits = cl.TransportStats()
		pt.ShortWrites = cluster.Server.RDMA.ShortWrites
		pt.ServerWrites = cluster.Server.NFS.Ops[nfs3.ProcWrite]
		if cluster.Server.NFS.Ops[nfs3.ProcRename] != renames {
			pt.DataOK = false
		}
		if faults > 0 && pt.Reconnects == 0 {
			// Faults that never landed mean the sweep measured nothing.
			panic("recovery: no reconnects despite injected faults")
		}
	})
	cluster.Run()
	return pt
}
