package main

import (
	"strconv"
	"strings"

	"repro/internal/trace"
)

// folded is a traced window reduced by event kind: how many events of each
// kind, and the total virtual time its spans (or matched begin/end pairs)
// cover.
type folded struct {
	count map[trace.Kind]int64
	ns    map[trace.Kind]int64
	wqes  map[string]int64 // posted work requests by opcode name

	rpcs        int64 // client Roundtrips (KindRPC spans)
	serveInRPC  int64 // ns of serve spans, each clipped to its own RPC's interval
	serveJoined int64 // serve spans that found their RPC
}

type pairKey struct {
	kind  trace.Kind
	track string
	id    uint64
}

type rpcKey struct {
	client int // index of the client node; the server numbers connections from 1 in dial order
	xid    uint32
}

type interval struct{ start, end int64 }

// fold walks the event stream once. Begin/End pairs (WQE, CQE, MR, parked
// replies) match on (kind, track, id); an End whose Begin predates the
// window is ignored. rpc, credit-wait and serve spans of one call share the
// XID: a serve span that outlives its RPC (post-reply deregistration) is
// clipped to the RPC's interval before it is subtracted as a child.
func fold(events []trace.Event) *folded {
	f := &folded{count: map[trace.Kind]int64{}, ns: map[trace.Kind]int64{}, wqes: map[string]int64{}}
	open := map[pairKey]int64{}
	rpc := map[rpcKey]interval{}
	for i := range events {
		e := &events[i]
		switch e.Phase {
		case trace.PhaseSpan:
			f.count[e.Kind]++
			f.ns[e.Kind] += e.Dur
			if e.Kind == trace.KindRPC {
				if c, ok := clientIndex(e.Track); ok {
					rpc[rpcKey{c, uint32(e.ID)}] = interval{e.T, e.T + e.Dur}
				}
			}
		case trace.PhaseInstant:
			f.count[e.Kind]++
		case trace.PhaseBegin:
			f.count[e.Kind]++
			open[pairKey{e.Kind, e.Track, e.ID}] = e.T
			if e.Kind == trace.KindWQE {
				f.wqes[e.Name]++
			}
		case trace.PhaseEnd:
			k := pairKey{e.Kind, e.Track, e.ID}
			if t0, ok := open[k]; ok {
				f.ns[e.Kind] += e.T - t0
				delete(open, k)
			}
		}
	}
	f.rpcs = f.count[trace.KindRPC]
	// A serve span is emitted before the RPC span that contains it ends, so
	// the join runs after the walk.
	for i := range events {
		e := &events[i]
		if e.Kind != trace.KindServe {
			continue
		}
		iv, ok := rpc[rpcKey{int(e.ID>>32) - 1, uint32(e.ID)}]
		if !ok {
			continue
		}
		f.serveJoined++
		start, end := e.T, e.T+e.Dur
		if start < iv.start {
			start = iv.start
		}
		if end > iv.end {
			end = iv.end
		}
		if end > start {
			f.serveInRPC += end - start
		}
	}
	return f
}

func clientIndex(track string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(track, "client"))
	return n, err == nil && strings.HasPrefix(track, "client")
}

// us converts a nanosecond total to microseconds per n.
func us(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

func per(count, n int64, scale float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(count) * scale / float64(n)
}

func pct(part, whole int64) float64 { return per(part, whole, 100) }

// tracedMetrics turns one traced execution into the T metrics: counts per
// RPC and virtual µs per RPC by layer, joined with the cluster's own
// counters over the same window. Every value is exact for a seed.
func tracedMetrics(out *outcome) map[string]float64 {
	f := fold(out.events)
	n := f.rpcs
	open, cl := out.open, out.close
	rec := &out.rec

	// Self time is a span minus its children, summed over the window.
	nfsNS, rpcNS := f.ns[trace.KindNFSProc], f.ns[trace.KindRPC]
	creditNS := f.ns[trace.KindCreditWait]
	coreSelf := int64(rec.latSum) - nfsNS
	nfsSelf := nfsNS - rpcNS
	clientSelf := rpcNS - creditNS - f.serveInRPC
	for name, v := range map[string]int64{"core": coreSelf, "nfs3": nfsSelf, "rpcrdma client": clientSelf} {
		if v < 0 {
			out.problemf("traced run: %s self time is negative (%d ns)", name, v)
		}
	}
	if sum := coreSelf + nfsSelf + clientSelf + creditNS + f.serveInRPC; !within(float64(sum), float64(rec.latSum), 0.005) {
		out.problemf("traced run: layer self times sum to %d ns, drivers measured %d ns", sum, rec.latSum)
	}
	served := cl.requests - open.requests
	for name, v := range map[string]int64{
		"nfs-proc spans": f.count[trace.KindNFSProc], "serve spans": f.count[trace.KindServe],
		"serve spans joined to their RPC": f.serveJoined, "server Requests": served,
	} {
		if v != n {
			out.problemf("traced run: %d %s for %d rpc spans", v, name, n)
		}
	}

	window := (cl.now - open.now).Seconds()
	diskUtil := 0.0
	if out.disks > 0 {
		diskUtil = (cl.diskBusy - open.diskBusy) / (float64(out.disks) * window) * 100
	}
	m := map[string]float64{
		"des.parks_per_rpc":  per(f.count[trace.KindBlocked], n, 1),
		"des.spawns_per_rpc": per(f.count[trace.KindSpawn], n, 1),

		"ibsim.sends_per_rpc":               per(f.wqes["SEND"], n, 1),
		"ibsim.writes_per_rpc":              per(f.wqes["RDMA_WRITE"], n, 1),
		"ibsim.reads_per_rpc":               per(f.wqes["RDMA_READ"], n, 1),
		"ibsim.wqe_us":                      us(f.ns[trace.KindWQE], f.count[trace.KindWQE]),
		"ibsim.cqe_wait_us":                 us(f.ns[trace.KindCQE], f.count[trace.KindCQE]),
		"ibsim.dma_us_per_rpc":              us(f.ns[trace.KindDMA], n),
		"ibsim.ord_wait_us_per_rpc":         us(f.ns[trace.KindORDWait], n),
		"ibsim.rnr_per_krpc":                per(f.count[trace.KindRNR], n, 1000),
		"ibsim.srq_starved_per_krpc":        per(cl.srqStarved-open.srqStarved, n, 1000),
		"ibsim.server_tx_util_pct":          (cl.txBusy - open.txBusy) / window * 100,
		"ibsim.tpt_util_pct":                (cl.tptBusy - open.tptBusy) / window * 100,
		"ibsim.server_exposed_mrs_per_krpc": per(cl.exposed, n, 1000),
		"memreg.reg_calls_per_rpc":          per(f.count[trace.KindRegCall], n, 1),
		"memreg.reg_us_per_rpc":             us(f.ns[trace.KindRegCall], n),
		"memreg.cache_hit_pct":              pct(cl.regHits-open.regHits, cl.regHits-open.regHits+cl.regMisses-open.regMisses),
		"memreg.evictions":                  float64(cl.regEvictions - open.regEvictions),
		"rpcrdma.rpc_us":                    us(rpcNS, n),
		"rpcrdma.credit_wait_us_per_rpc":    us(creditNS, n),
		"rpcrdma.serve_us":                  us(f.ns[trace.KindServe], f.count[trace.KindServe]),
		"rpcrdma.bulk_pull_us_per_rpc":      us(f.ns[trace.KindBulkRead], n),
		"rpcrdma.client_self_us":            us(clientSelf, n),
		"rpcrdma.done_per_krpc":             per(cl.doneRecv-open.doneRecv, n, 1000),
		"rpcrdma.long_replies_per_krpc":     per(cl.longReplies-open.longReplies, n, 1000),
		"rpcrdma.deposits_per_krpc":         per(cl.deposits-open.deposits, n, 1000),
		"rpcrdma.retransmits":               float64(cl.retransmits - open.retransmits),
		"rpcrdma.timeouts":                  float64(cl.timeouts - open.timeouts),
		"rpcrdma.shard_max_queue":           float64(out.shardMaxQ),
		"rpcrdma.recv_state_mb":             out.recvStateMB,
		"oncrpc.dispatch_us":                us(f.ns[trace.KindDispatch], f.count[trace.KindDispatch]),
		"oncrpc.drc_hits":                   float64(cl.drcHits - open.drcHits),
		"oncrpc.drc_entries":                float64(out.drcEntries),
		"nfs3.proc_us":                      us(nfsNS, f.count[trace.KindNFSProc]),
		"nfs3.self_us":                      us(nfsSelf, n),
		"vfs.pagecache_hit_pct":             pct(cl.pageHits-open.pageHits, cl.pageHits-open.pageHits+cl.pageMisses-open.pageMisses),
		"vfs.disk_util_pct":                 diskUtil,
		"cpu.server_util_pct":               (cl.serverCPU - open.serverCPU) / (float64(out.serverCores) * window) * 100,
		"cpu.interrupts_per_rpc":            per(cl.interrupts-open.interrupts, n, 1),
		"cpu.migrations_per_krpc":           per(cl.migrations-open.migrations, n, 1000),
		"core.self_us":                      us(coreSelf, rec.done),
		"telemetry.ticks":                   float64(cl.telTicks - open.telTicks),
		"trace.events_per_rpc":              per(int64(len(out.events)), n, 1),
		"harness.gen_late_us":               us(int64(rec.genLate), 1),
		"harness.slo_miss_pct":              pct(rec.sloMiss, rec.olOps),
	}
	return m
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}
