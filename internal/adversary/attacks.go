package adversary

import (
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/rpcrdma"
)

// attacker is the mallory node's state: one seeded randomness stream drives
// every probe, guess, and pause, so a run's interleaving with the victims
// is a pure function of Config.
type attacker struct {
	cfg     *Config
	cluster *core.Cluster
	node    *ibsim.Node
	rng     *des.Rand
	res     *Result

	// hits are (rkey, addr) pairs the scan read successfully; the stale
	// probe replays them after the owners' I/O windows closed.
	hits []probeHit
}

type probeHit struct {
	rkey uint32
	addr uint64
}

// Attack pacing. Redials are cheap and fast: a real attacker is not polite.
const (
	warmup      = 20 * time.Microsecond
	probeRedial = 2 * time.Microsecond
	spoofGap    = 1 * time.Microsecond
	staleQuiet  = 1 * time.Millisecond
	sprayBudget = 16
	maxScanHits = 4
	dialRetries = 20
)

// nfs3XIDBase is where every honest client's NFS XID sequence starts (the
// simulator seeds XIDs from the program number for determinism — exactly
// the predictability a DONE- or DRC-forging attacker exploits).
const nfs3XIDBase = nfs3.Program<<8 + 3

func (a *attacker) run(p *des.Proc) {
	p.Sleep(warmup) // let the victims register memory and start calling
	// DRC forgery races the victims' live XID window, so it goes first;
	// the stale probe needs the scan's discovered keys, so it goes last.
	if a.cfg.Attacks&AttackDRCForge != 0 {
		a.drcForge(p)
	}
	if a.cfg.Attacks&AttackSpoofDone != 0 {
		a.spoofDone(p)
	}
	if a.cfg.Attacks&AttackRkeyScan != 0 {
		a.rkeyScan(p)
	}
	if a.cfg.Attacks&AttackStaleProbe != 0 {
		a.staleProbe(p)
	}
}

// compromise records the first unauthorized success.
func (a *attacker) compromise(p *des.Proc, how string) {
	if a.res.Compromised {
		return
	}
	a.res.Compromised = true
	a.res.TimeToCompromise = p.Now()
	a.res.CompromiseVia = how
}

// sampleAddr draws a server virtual address from the allocated range. The
// bump allocator's watermark bounds the search space the way a host's
// physical memory size would.
func (a *attacker) sampleAddr() uint64 {
	const base = 0x1000
	hi := a.cluster.Server.Node.Mem.Watermark()
	if hi <= base+1 {
		return base
	}
	return base + uint64(a.rng.Int63n(int64(hi-base)))
}

// rkeyScan guesses steering tags and addresses and issues raw one-sided
// Reads against the server's HCA. Every protection fault kills the QP (the
// responder NAKs and the connection enters the error state — the fabric's
// own rate limiting), so the attacker redials per miss. Sequential tag
// allocation (the vulnerable posture) makes the key space enumerable;
// all-physical registration collapses it to one global key covering all of
// memory.
func (a *attacker) rkeyScan(p *des.Proc) {
	res := a.res
	srv := a.cluster.Server.Node
	local := a.node.Mem.AllocMaterialized(8)
	guess := uint32(0)
	for res.Probes < int64(a.cfg.ProbeBudget) && len(a.hits) < maxScanHits {
		qp, _ := a.cluster.Fabric.Connect(a.node, srv, ibsim.QPConfig{})
		for res.Probes < int64(a.cfg.ProbeBudget) && len(a.hits) < maxScanHits {
			guess++
			addr := a.sampleAddr()
			cqe := qp.PostAndWait(p, &ibsim.SendWQE{
				WRID:       uint64(res.Probes),
				Op:         ibsim.OpRead,
				Local:      []ibsim.LocalSeg{{Buf: local, Len: 1}},
				RemoteKey:  guess,
				RemoteAddr: addr,
			})
			res.Probes++
			if cqe.Err != nil {
				break // protection fault: the QP is dead, redial
			}
			res.ProbeHits++
			a.hits = append(a.hits, probeHit{rkey: guess, addr: addr})
			a.compromise(p, "rkey-scan read")
		}
		qp.Close()
		res.Reconnects++
		p.Sleep(probeRedial)
	}
	if len(a.hits) > 0 {
		a.writeSpray(p, a.hits[0].rkey)
	}
}

// writeSpray escalates a read compromise: one-sided Writes of a poison byte
// at random addresses under a discovered key. Against a read-only exposure
// (Read-Read reply chunks) every write faults; against the all-physical
// global key they land anywhere in server memory — the blast the oracle
// then attributes to individual victims.
func (a *attacker) writeSpray(p *des.Proc, rkey uint32) {
	srv := a.cluster.Server.Node
	local := a.node.Mem.AllocMaterialized(1)
	if d := local.Data(); d != nil {
		d[0] = 0xEE
	}
	for i := 0; i < sprayBudget; i++ {
		qp, _ := a.cluster.Fabric.Connect(a.node, srv, ibsim.QPConfig{})
		cqe := qp.PostAndWait(p, &ibsim.SendWQE{
			Op:         ibsim.OpWrite,
			Local:      []ibsim.LocalSeg{{Buf: local, Len: 1}},
			RemoteKey:  rkey,
			RemoteAddr: a.sampleAddr(),
		})
		qp.Close()
		if cqe.Err != nil {
			a.res.Reconnects++
			p.Sleep(probeRedial)
			continue
		}
		a.res.WriteHits++
		a.compromise(p, "rkey-scan write")
	}
}

// spoofDone forges the Read-Read design's RDMA_DONE completion with guessed
// XIDs. On a shared multiplexed QP it also forges the stream claim, trying
// to speak as a victim endpoint and free that victim's parked replies; on a
// dedicated connection the parked-reply map is keyed by connection, so
// guessed XIDs can only ever name the attacker's own (empty) parking and
// every forgery is rejected.
func (a *attacker) spoofDone(p *des.Proc) {
	if a.cfg.Multiplex {
		a.spoofDoneMux(p)
	} else {
		a.spoofDoneDedicated(p)
	}
}

func (a *attacker) spoofDoneMux(p *des.Proc) {
	before := a.cluster.Server.RDMA.CrossClientFrees
	var ep *ibsim.QP
	attach := func() bool {
		for try := 0; try < dialRetries; try++ {
			q, _, ok := a.cluster.Server.RDMA.TryAttach(a.node)
			if ok {
				ep = q
				return true
			}
			p.Sleep(4 * probeRedial) // server mid-crash or table full
		}
		return false
	}
	if !attach() {
		return
	}
	for i := 0; i < a.cfg.SpoofBudget; i++ {
		// Victims attach first, so their endpoints sit in the low slots of
		// the shared QP: slot k carries stream id k+1 at generation 0.
		victim := uint32(1 + a.rng.Intn(a.cfg.Clients))
		hdr := &rpcrdma.Header{
			XID:  uint32(nfs3XIDBase + 1 + a.rng.Intn(64)),
			Type: rpcrdma.MsgDone,
		}
		cqe := ep.PostAndWait(p, &ibsim.SendWQE{
			Op:      ibsim.OpSend,
			Payload: hdr.Encode(),
			Stream:  victim, // forged claim; the fabric stamps the true source
		})
		a.res.SpoofSent++
		if cqe.Err != nil {
			// Quarantined (or collateral of a composed fault): re-attach and
			// keep going — the server must only ever have killed us.
			a.res.Reconnects++
			if !attach() {
				return
			}
		}
		p.Sleep(spoofGap)
	}
	if a.cluster.Server.RDMA.CrossClientFrees > before {
		a.compromise(p, "spoofed DONE cross-client free")
	}
	ep.Close()
}

func (a *attacker) spoofDoneDedicated(p *des.Proc) {
	var qp *ibsim.QP
	dial := func() bool {
		for try := 0; try < dialRetries; try++ {
			cq, sq := a.cluster.Fabric.Connect(a.node, a.cluster.Server.Node, ibsim.QPConfig{})
			if a.cluster.Server.RDMA.TryServe(sq) {
				qp = cq
				return true
			}
			cq.Close()
			p.Sleep(4 * probeRedial)
		}
		return false
	}
	if !dial() {
		return
	}
	for i := 0; i < a.cfg.SpoofBudget; i++ {
		hdr := &rpcrdma.Header{
			XID:  uint32(nfs3XIDBase + 1 + a.rng.Intn(64)),
			Type: rpcrdma.MsgDone,
		}
		cqe := qp.PostAndWait(p, &ibsim.SendWQE{Op: ibsim.OpSend, Payload: hdr.Encode()})
		a.res.SpoofSent++
		if cqe.Err != nil {
			a.res.Reconnects++
			if !dial() {
				return
			}
		}
		p.Sleep(spoofGap)
	}
	qp.Close()
}

// drcForge connects a full RPC/RDMA transport under a forged client
// credential (the first victim's machine name) and floods WRITEs to the
// attacker's own file. Honest XID sequences are seeded from the program
// number, so the attacker's XIDs collide with the victim's: with the
// credential-keyed duplicate request cache (the vulnerable posture) the
// attacker's committed entries squat on XIDs the victim has yet to issue,
// and the victim's colliding WRITE is answered from the poisoned cache
// without executing. Transport-authenticated keying (DispatchOpts.Peer)
// pins the attacker's entries to "mallory" no matter what the credential
// claims.
func (a *attacker) drcForge(p *des.Proc) {
	mgr := memreg.NewManager(p, a.node, memreg.Config{Mode: a.cfg.RegMode})
	t := a.dialTransport(p, mgr)
	if t == nil {
		return
	}
	defer t.Close()
	victim := "client0"
	mc := nfs3.NewMountClient(t, victim)
	root, err := mc.Mount(p, "/")
	if err != nil {
		a.res.ForgeFails++
		return
	}
	forged := nfs3.NewClient(t, victim)
	fh, _, err := forged.Create(p, root, "mallory.dat", 0644)
	if err != nil {
		a.res.ForgeFails++
		return
	}
	payload := make([]byte, 4096) // one record of the victims' workload
	for i := range payload {
		payload[i] = 0xEE
	}
	for i := 0; i < a.cfg.ForgeBudget; i++ {
		if _, err := forged.Write(p, fh, 0, oncrpc.NewBulk(payload), nfs3.FileSync); err != nil {
			a.res.ForgeFails++
			return // transport dead (quarantine or composed fault)
		}
		a.res.ForgeSent++
	}
}

// dialTransport builds the attacker's full client transport, honouring the
// cluster's connection mode, with the same backoff honest dialers use.
func (a *attacker) dialTransport(p *des.Proc, mgr *memreg.Manager) *rpcrdma.ClientTransport {
	cfgC := a.cluster.Cfg.Profile.RDMAClient
	cfgC.Design = a.cfg.Design
	backoff := des.Duration(50 * time.Microsecond)
	for try := 0; try < 12; try++ {
		if a.cluster.Cfg.Multiplex {
			cfgC.Multiplex = true
			if q, grant, ok := a.cluster.Server.RDMA.TryAttach(a.node); ok {
				if grant > 0 && grant < cfgC.Credits {
					cfgC.Credits = grant
				}
				return rpcrdma.NewClientTransport(p, q, mgr, cfgC)
			}
		} else {
			cq, sq := a.cluster.Fabric.Connect(a.node, a.cluster.Server.Node, ibsim.QPConfig{})
			if a.cluster.Server.RDMA.TryServe(sq) {
				return rpcrdma.NewClientTransport(p, cq, mgr, cfgC)
			}
			cq.Close()
		}
		p.Sleep(backoff)
		backoff *= 2
	}
	return nil
}

// staleProbe replays the scan's discovered keys after a quiet period. A
// regular registration faults once the owner deregistered; an FMR without
// key rotation silently aliases whatever the handle was remapped to — the
// exposure window of §4.3 made readable — and rotation closes it.
func (a *attacker) staleProbe(p *des.Proc) {
	if len(a.hits) == 0 {
		return
	}
	p.Sleep(staleQuiet) // let victims' I/O windows close and handles remap
	srv := a.cluster.Server.Node
	local := a.node.Mem.AllocMaterialized(8)
	for _, h := range a.hits {
		qp, _ := a.cluster.Fabric.Connect(a.node, srv, ibsim.QPConfig{})
		cqe := qp.PostAndWait(p, &ibsim.SendWQE{
			Op:         ibsim.OpRead,
			Local:      []ibsim.LocalSeg{{Buf: local, Len: 1}},
			RemoteKey:  h.rkey,
			RemoteAddr: h.addr,
		})
		a.res.StaleSent++
		if cqe.Err == nil {
			a.res.StaleHits++
			a.compromise(p, "stale-rkey read")
		} else {
			a.res.Reconnects++
		}
		qp.Close()
		p.Sleep(probeRedial)
	}
}
