package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/nfs3"
)

// ChaosOracle is the integrity model the chaos load reports into (implemented
// by chaos.Oracle; an interface here so the workload layer does not depend
// on the chaos package).
type ChaosOracle interface {
	WriteIssued(file string, rec int, val byte)
	WriteAcked(file string, rec int, val byte)
	WriteFailed(file string, rec int, val byte)
	ReadObserved(file string, rec int, data []byte)
	RenameENOENT(start, end des.Time) bool
	Violation(format string, args ...any)
}

// The chaos workload's shape: per client, chaosWorkers procs stripe FileSync
// record writes across one file for chaosRounds passes (each round writing a
// fresh value per record), with periodic read-back checks; client 0
// additionally drives a RENAME chain — the operation whose replay semantics
// across DRC loss the oracle judges. After all drivers finish, a verify pass
// reads every record back through the protocol.
const (
	chaosWorkers = 2    // writer procs per client
	chaosRecords = 6    // records per client file
	chaosRounds  = 3    // full passes over the records
	chaosRecSize = 4096 // bytes per record
	chaosRenames = 8    // length of the rename chain (client 0)
	chaosThink   = 20 * time.Microsecond
)

// ChaosLoadResult aggregates the drivers' outcomes. Integrity verdicts live
// in the oracle, not here.
type ChaosLoadResult struct {
	WritesAcked, WritesFailed int64
	ReadsChecked, ReadsFailed int64
	RenamesOK                 int64
	RenameENOENTs             int64
	RenamesFailed             int64
	VerifyReads               int64
	VerifyFailures            int64
}

// chaosFill is the value byte of (client, record, round): nonzero, and
// distinct across consecutive rounds of the same record so a lost or stale
// write is observable.
func chaosFill(client, rec, round int) byte {
	return byte(1 + (client*131+rec*31+round*7)%254)
}

// isNoEnt reports an NFS3ERR_NOENT outcome.
func isNoEnt(err error) bool {
	var se *nfs3.StatusError
	return errors.As(err, &se) && se.Status == nfs3.ErrNoEnt
}

// RunChaosLoad drives the chaos workload inside an existing cluster process
// (recovery must already be enabled on every client). It returns after the
// final verify pass; every byte observed by a READ has been checked against
// o.
func RunChaosLoad(p *des.Proc, cluster *core.Cluster, o ChaosOracle) (ChaosLoadResult, error) {
	var res ChaosLoadResult

	// Telemetry (nil engine when disabled): the acked-write rate is the
	// series chaos fault windows are annotated against — it collapses during
	// an outage and climbing back to baseline marks recovery.
	tel := cluster.Telemetry()
	tel.Counter("workload.writes_acked", func() float64 { return float64(res.WritesAcked) })
	tel.Counter("workload.writes_failed", func() float64 { return float64(res.WritesFailed) })
	tel.Counter("workload.reads_checked", func() float64 { return float64(res.ReadsChecked) })
	tel.Counter("workload.renames_ok", func() float64 { return float64(res.RenamesOK) })
	tel.Start(p)
	defer tel.Stop()

	files := make([]*core.File, len(cluster.Clients))
	names := make([]string, len(cluster.Clients))
	for ci, cl := range cluster.Clients {
		names[ci] = fmt.Sprintf("chaos.c%d", ci)
		f, err := cl.Create(p, names[ci])
		if err != nil {
			return res, fmt.Errorf("chaos: create %s: %w", names[ci], err)
		}
		files[ci] = f
	}

	// Writers and the rename chain run concurrently, so scheduled faults
	// land on in-flight WRITEs and RENAMEs alike.
	writers := len(cluster.Clients) * chaosWorkers
	parallel(p, "chaos-driver", writers+1, func(wp *des.Proc, i int) {
		if i == writers {
			res.renameChain(wp, cluster.Clients[0], o)
			return
		}
		ci, wi := i/chaosWorkers, i%chaosWorkers
		res.writer(wp, cluster.Clients[ci], files[ci], names[ci], ci, wi, o)
	})

	// End-of-run verify: every record of every file, read back through the
	// protocol. All faults have fired by now (the generator places them
	// inside the workload horizon) and every crash restarts, so reads
	// eventually succeed; the retry budget is generous, not infinite.
	for ci, cl := range cluster.Clients {
		buf := cl.NewMaterializedBuffer(chaosRecSize)
		for rec := 0; rec < chaosRecords; rec++ {
			fillBytes(buf.Bytes(), 0)
			off := int64(rec) * int64(chaosRecSize)
			ok := false
			for attempt := 0; attempt < 60; attempt++ {
				_, _, err := files[ci].ReadAt(p, buf, 0, off, chaosRecSize, false)
				if err == nil {
					ok = true
					break
				}
				p.Sleep(250 * time.Microsecond)
			}
			if !ok {
				res.VerifyFailures++
				o.Violation("verify: read %s rec %d never succeeded", names[ci], rec)
				continue
			}
			res.VerifyReads++
			o.ReadObserved(names[ci], rec, buf.Bytes()[:chaosRecSize])
		}
	}
	return res, nil
}

// writer is one striped record writer: records wi, wi+chaosWorkers, ... of the
// client's file, chaosRounds passes, FileSync, read-back check every third write.
// A record whose write fails terminally is RETIRED — never written again —
// so its unresolved value stays legal in the oracle forever (see
// Oracle.WriteFailed).
func (res *ChaosLoadResult) writer(wp *des.Proc, cl *core.Client, f *core.File, name string, ci, wi int, o ChaosOracle) {
	buf := cl.NewMaterializedBuffer(chaosRecSize)
	retired := make(map[int]bool)
	ops := 0
	for round := 0; round < chaosRounds; round++ {
		for rec := wi; rec < chaosRecords; rec += chaosWorkers {
			if retired[rec] {
				continue
			}
			val := chaosFill(ci, rec, round)
			fillBytes(buf.Bytes(), val)
			off := int64(rec) * int64(chaosRecSize)
			o.WriteIssued(name, rec, val)
			_, err := f.WriteAt(wp, buf, 0, off, chaosRecSize, true)
			if err != nil {
				o.WriteFailed(name, rec, val)
				res.WritesFailed++
				retired[rec] = true
				continue
			}
			o.WriteAcked(name, rec, val)
			res.WritesAcked++
			ops++
			if ops%3 == 0 {
				fillBytes(buf.Bytes(), 0)
				if _, _, rerr := f.ReadAt(wp, buf, 0, off, chaosRecSize, false); rerr != nil {
					res.ReadsFailed++
				} else {
					o.ReadObserved(name, rec, buf.Bytes()[:chaosRecSize])
					res.ReadsChecked++
				}
			}
			wp.Sleep(chaosThink)
		}
	}
}

// renameChain renames chain.0 → chain.1 → ... → chain.N on client 0. RENAME
// is the canonical non-idempotent procedure: once chain.(k-1) is renamed
// away, re-executing the same RENAME returns NFS3ERR_NOENT. With a healthy
// DRC a recovery replay is answered from the cache; across a server crash
// the DRC is legitimately gone and the replay re-executes — the oracle
// decides which case an observed ENOENT was.
func (res *ChaosLoadResult) renameChain(wp *des.Proc, cl *core.Client, o ChaosOracle) {
	if _, err := cl.Create(wp, "chain.0"); err != nil {
		o.Violation("rename chain: create chain.0: %v", err)
		return
	}
	cur := "chain.0"
	for k := 1; k <= chaosRenames; k++ {
		next := fmt.Sprintf("chain.%d", k)
		for attempt := 0; ; attempt++ {
			start := wp.Now()
			err := cl.NFS.Rename(wp, cl.Root, cur, cl.Root, next)
			end := wp.Now()
			if err == nil {
				res.RenamesOK++
				cur = next
				break
			}
			if isNoEnt(err) {
				res.RenameENOENTs++
				o.RenameENOENT(start, end) // records a violation when illegal
				if res.chainExists(wp, cl, next) && !res.chainExists(wp, cl, cur) {
					cur = next // the first execution did the work
				} else {
					o.Violation("rename chain wedged after ENOENT: neither %s nor %s resolves cleanly", cur, next)
					return
				}
				break
			}
			// Terminal transport failure: the rename may or may not have
			// executed. Probe the namespace to find out.
			res.RenamesFailed++
			if res.chainExists(wp, cl, next) && !res.chainExists(wp, cl, cur) {
				cur = next
				break
			}
			if attempt >= 20 {
				o.Violation("rename %s -> %s stuck after %d attempts: %v", cur, next, attempt+1, err)
				return
			}
			wp.Sleep(200 * time.Microsecond)
		}
		wp.Sleep(chaosThink)
	}
}

// chaosLookupAttempts bounds namespace probes; LOOKUP is idempotent, so
// retrying across faults is always safe.
const chaosLookupAttempts = 60

// chainExists probes whether name resolves at the root, retrying transport
// failures.
func (res *ChaosLoadResult) chainExists(wp *des.Proc, cl *core.Client, name string) bool {
	for attempt := 0; attempt < chaosLookupAttempts; attempt++ {
		_, _, err := cl.NFS.Lookup(wp, cl.Root, name)
		if err == nil {
			return true
		}
		if isNoEnt(err) {
			return false
		}
		wp.Sleep(250 * time.Microsecond)
	}
	return false
}

func fillBytes(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}
