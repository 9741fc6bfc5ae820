package trace

import (
	"fmt"
	"slices"
	"strings"
)

// Trace-driven invariant checks: correctness properties of the stack
// stated as predicates over the event stream and enforced from tests
// (internal/core/traceinv_test.go). They need a complete stream — callers
// should reject traces with Dropped() > 0 before trusting pairing checks.

// MRArg encodes the payload of a KindMR Begin event: the low 3 bits carry
// the ibsim access flags (LocalWrite, RemoteRead, RemoteWrite in bit
// order), the remaining bits the registered length in bytes.
func MRArg(access uint8, length int) int64 { return int64(access) | int64(length)<<3 }

const (
	mrAccessRemoteRead  = 1 << 1
	mrAccessRemoteWrite = 1 << 2
)

// mrRemote reports whether an MR Arg carries remote read or write access.
func mrRemote(arg int64) bool { return arg&(mrAccessRemoteRead|mrAccessRemoteWrite) != 0 }

// problems accumulates invariant violations, reporting the first few.
type problems struct {
	n    int
	msgs []string
}

func (p *problems) addf(format string, args ...any) {
	p.n++
	if len(p.msgs) < 8 {
		p.msgs = append(p.msgs, fmt.Sprintf(format, args...))
	}
}

func (p *problems) err(what string) error {
	if p.n == 0 {
		return nil
	}
	return fmt.Errorf("trace: %s: %d violation(s):\n  %s", what, p.n, strings.Join(p.msgs, "\n  "))
}

// CheckWQECQE verifies completion discipline: every posted work request
// (KindWQE Begin) is completed exactly once (KindWQE End) at a time no
// earlier than its post, and no completion appears for a request that was
// never posted. This holds even under fault injection — flushed WQEs
// complete with an error, they do not vanish.
func CheckWQECQE(events []Event) error {
	var p problems
	posted := map[uint64]int64{} // WQE seq -> post time, removed at completion
	for i := range events {
		e := &events[i]
		if e.Kind != KindWQE {
			continue
		}
		switch e.Phase {
		case PhaseBegin:
			if _, dup := posted[e.ID]; dup {
				p.addf("WQE %d (%s on %s) posted twice", e.ID, e.Name, e.Track)
				continue
			}
			posted[e.ID] = e.T
		case PhaseEnd:
			t0, ok := posted[e.ID]
			if !ok {
				p.addf("WQE %d (%s on %s) completed at %dns without a post (or completed twice)", e.ID, e.Name, e.Track, e.T)
				continue
			}
			if e.T < t0 {
				p.addf("WQE %d (%s on %s) completed at %dns before its post at %dns", e.ID, e.Name, e.Track, e.T, t0)
			}
			delete(posted, e.ID)
		}
	}
	ids := make([]uint64, 0, len(posted))
	for id := range posted {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p.addf("WQE %d posted at %dns but never completed", id, posted[id])
	}
	return p.err("WQE/CQE pairing")
}

// mrInterval is one TPT-entry lifetime on a track.
type mrInterval struct {
	start, end int64
	open       bool
	arg        int64
}

type trackKey struct {
	track string
	id    uint64
}

// mrIntervals reconstructs MR lifetimes per (track, rkey) from KindMR
// Begin/End pairs, in stream order.
func mrIntervals(events []Event) map[trackKey][]mrInterval {
	out := map[trackKey][]mrInterval{}
	for i := range events {
		e := &events[i]
		if e.Kind != KindMR {
			continue
		}
		k := trackKey{e.Track, e.ID}
		switch e.Phase {
		case PhaseBegin:
			out[k] = append(out[k], mrInterval{start: e.T, end: 0, open: true, arg: e.Arg})
		case PhaseEnd:
			ivs := out[k]
			for j := len(ivs) - 1; j >= 0; j-- {
				if ivs[j].open {
					ivs[j].open = false
					ivs[j].end = e.T
					break
				}
			}
		}
	}
	return out
}

// CheckExposureBounds verifies the paper's client-side safety property:
// every remotely accessible rkey a client binds to an RPC (KindExpose,
// ID = XID, Arg = rkey) is deregistered no later than the RPC completes
// (its KindRPC span ends). An exposure that outlives its RPC is a window
// in which a remote peer can read or corrupt memory the RPC no longer
// owns — exactly what the Read-Write design closes on the server side and
// what this check pins down on the client side.
func CheckExposureBounds(events []Event) error {
	var p problems
	mrs := mrIntervals(events)

	// RPC spans per (track, xid); several can exist over a long run, so an
	// exposure matches the span containing its instant.
	rpcs := map[trackKey][]mrInterval{}
	for i := range events {
		e := &events[i]
		if e.Kind == KindRPC && e.Phase == PhaseSpan {
			k := trackKey{e.Track, e.ID}
			rpcs[k] = append(rpcs[k], mrInterval{start: e.T, end: e.T + e.Dur})
		}
	}

	for i := range events {
		e := &events[i]
		if e.Kind != KindExpose || e.Phase != PhaseInstant {
			continue
		}
		rkey := uint64(e.Arg)
		var mr *mrInterval
		for j, iv := range mrs[trackKey{e.Track, rkey}] {
			if iv.start <= e.T && (iv.open || e.T <= iv.end) {
				mr = &mrs[trackKey{e.Track, rkey}][j]
				break
			}
		}
		if mr == nil {
			p.addf("exposure of rkey %#x on %s at %dns has no live MR", rkey, e.Track, e.T)
			continue
		}
		var rpcEnd int64 = -1
		for _, iv := range rpcs[trackKey{e.Track, e.ID}] {
			if iv.start <= e.T && e.T <= iv.end {
				rpcEnd = iv.end
				break
			}
		}
		if rpcEnd < 0 {
			p.addf("exposure of rkey %#x on %s at %dns is not inside RPC xid=%#x", rkey, e.Track, e.T, e.ID)
			continue
		}
		if mr.open {
			p.addf("rkey %#x on %s (xid=%#x) never deregistered; RPC ended at %dns", rkey, e.Track, e.ID, rpcEnd)
			continue
		}
		if mr.end > rpcEnd {
			p.addf("rkey %#x on %s outlives its RPC xid=%#x: deregistered at %dns, RPC ended at %dns",
				rkey, e.Track, e.ID, mr.end, rpcEnd)
		}
	}
	return p.err("MR exposure bounds")
}

// CheckNoRemoteExposure verifies the Read-Write design's server-side
// security property (§4.2): the named track (the server node) never
// installs a remotely accessible memory region. On a Read-Read server
// this check fails by design — its reply buffers are remotely readable —
// which is how a test demonstrates the §4.1 exposure is visible in the
// trace.
func CheckNoRemoteExposure(events []Event, track string) error {
	var p problems
	for i := range events {
		e := &events[i]
		if e.Kind == KindMR && e.Phase == PhaseBegin && e.Track == track && mrRemote(e.Arg) {
			p.addf("remotely accessible MR rkey=%#x (len %d) installed on %s at %dns",
				e.ID, e.Arg>>3, e.Track, e.T)
		}
	}
	return p.err("remote exposure on " + track)
}
