// Package trace is the simulator's structured observability layer: a
// virtual-time event stream threaded through every layer of the stack —
// the DES kernel (process blocked spans), ibsim (WQE post → doorbell →
// DMA → CQE, IRD/ORD waits, MR lifetimes), rpcrdma (per-XID RPC lifecycle,
// credit waits, bulk segments, timeouts), oncrpc/nfs3 (dispatch,
// DRC outcomes, per-procedure latency) and core (caches, recovery).
//
// Design constraints, in order:
//
//  1. Disabled tracing must cost a nil-check. The kernel's schedule/resume
//     path is allocation-free (see internal/des/bench_test.go) and stays
//     that way: every instrumentation site guards on a nil *Tracer.
//  2. Enabled tracing must not allocate on the hot path. Events are plain
//     value records written into a preallocated ring buffer; names and
//     tracks are static strings assigned, never built, at emission time.
//  3. Events must be useful both to humans (Chrome trace viewer, text
//     summary — see chrome.go and summary.go) and to machines (invariant
//     checkers over the stream — see invariants.go).
//
// The package deliberately does not import internal/des: it keeps time as
// a bare int64 of virtual nanoseconds so the kernel itself can depend on
// it without a cycle.
package trace

import (
	"sort"

	"repro/internal/stats"
)

// Layer identifies the stack layer an event originates from.
type Layer uint8

// Layers, bottom up.
const (
	LayerDES Layer = iota
	LayerIbsim
	LayerRPC
	LayerONCRPC
	LayerNFS
	LayerCore
	numLayers
)

var layerNames = [numLayers]string{"des", "ibsim", "rpcrdma", "oncrpc", "nfs3", "core"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "layer?"
}

// Phase distinguishes complete spans, asynchronous begin/end pairs, and
// point events.
type Phase uint8

// Phases. PhaseSpan events carry their full duration in Dur (the emitter
// knew both endpoints); PhaseBegin/PhaseEnd pairs are matched by
// (Layer, Kind, Track, ID) when the two ends live in different processes
// (a WQE posted by an RPC thread and completed by the QP engine).
const (
	PhaseInstant Phase = iota
	PhaseSpan
	PhaseBegin
	PhaseEnd
)

// Kind is the event taxonomy. Kinds are layer-scoped but share one number
// space so an Event stays a flat record.
type Kind uint8

// Event kinds, grouped by the layer that emits them.
const (
	// DES kernel.
	KindBlocked Kind = iota // span: process parked → resumed
	KindSpawn               // instant: process created

	// ibsim fabric.
	KindWQE      // begin/end: work request posted → completion generated
	KindDoorbell // instant: send engine dequeues the WQE (Arg: SQ depth behind it)
	KindDMA      // span: wire occupancy of the request's data/request packet
	KindORDWait  // span: RDMA Read stalled waiting for an ORD slot
	KindCQE      // begin/end: completion posted to CQ → consumed by software
	KindMR       // begin/end: TPT entry installed → removed (Arg: access|len<<3)
	KindRegCall  // span: one registration/map call on the host
	KindRNR      // instant: receiver-not-ready redelivery
	KindQPError  // instant: queue pair entered the error state

	// rpcrdma.
	KindRPC        // span: client Roundtrip on one connection
	KindCreditWait // span: client blocked on flow-control credits
	KindBulkRead   // span: RDMA Read segment pull (client chunks, server write data)
	KindBulkWrite  // instant: RDMA Write segment posted (server push)
	KindTimeout    // instant: per-call timer expired
	KindServe      // span: server-side handling of one received message
	KindParked     // begin/end: reply buffers parked awaiting RDMA_DONE (Read-Read)
	KindDone       // instant: RDMA_DONE sent (client) or received (server)
	KindExpose     // instant: client binds a remotely accessible rkey (Arg) to an RPC (ID=XID)
	KindShortWrite // instant: reply payload truncated by the client's chunk capacity

	// oncrpc.
	KindDispatch    // span: service handler execution for one call
	KindDRCHit      // instant: duplicate request answered from the cache
	KindDRCSuppress // instant: duplicate of a still-executing request dropped

	// nfs3.
	KindNFSProc // span: one NFS procedure as seen by the client

	// core.
	KindCacheHit  // instant: client cache hit (attr/lookup/data — see Name)
	KindCacheMiss // instant: client cache miss
	KindReconnect // span: recovery layer replacing a broken connection
	KindReplay    // instant: call replayed onto a fresh connection
	numKinds
)

var kindNames = [numKinds]string{
	"blocked", "spawn",
	"wqe", "doorbell", "dma", "ord-wait", "cqe", "mr", "reg-call", "rnr", "qp-error",
	"rpc", "credit-wait", "bulk-read", "bulk-write", "timeout",
	"serve", "parked", "done", "expose", "short-write",
	"dispatch", "drc-hit", "drc-suppress",
	"nfs-proc",
	"cache-hit", "cache-miss", "reconnect", "replay",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one structured trace record. T is virtual nanoseconds; Dur is
// only meaningful for PhaseSpan. Track is the hardware/software context
// the event belongs to (node, node/qp, process name) and becomes a Chrome
// trace process row. ID pairs Begin/End events and links related events
// (WQE sequence numbers, XIDs, rkeys); Arg is kind-specific payload.
type Event struct {
	T     int64
	Dur   int64
	ID    uint64
	Arg   int64
	Track string
	Name  string
	Layer Layer
	Kind  Kind
	Phase Phase
}

// End returns the event's end time: T+Dur for spans, T otherwise.
func (e *Event) End() int64 {
	if e.Phase == PhaseSpan {
		return e.T + e.Dur
	}
	return e.T
}

// Tracer is a ring-buffer event sink plus a registry of named latency
// histograms. A Tracer belongs to one simulation and inherits its
// single-threaded discipline: Emit and Observe are only called from
// simulation processes (one at a time), and readers (Events, Histograms)
// run after the simulation completes. All methods are safe on a nil
// receiver — a nil *Tracer IS the disabled state.
type Tracer struct {
	buf []Event
	n   uint64 // total events emitted (may exceed len(buf))

	hists     map[string]*stats.Histogram
	histOrder []string
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: large enough for a small experiment, ~5 MB of memory.
const DefaultCapacity = 1 << 16

// New creates a tracer whose ring holds capacity events; older events are
// overwritten once the ring wraps (Dropped reports how many).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity), hists: make(map[string]*stats.Histogram)}
}

// Emit appends one event to the ring. It is allocation-free and safe on a
// nil receiver.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
}

// Span records a completed [start, end] interval in one event.
func (t *Tracer) Span(start, end int64, layer Layer, kind Kind, track, name string, id uint64, arg int64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: start, Dur: end - start, ID: id, Arg: arg, Track: track, Name: name, Layer: layer, Kind: kind, Phase: PhaseSpan})
}

// Begin records the opening edge of an asynchronous pair.
func (t *Tracer) Begin(at int64, layer Layer, kind Kind, track, name string, id uint64, arg int64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: at, ID: id, Arg: arg, Track: track, Name: name, Layer: layer, Kind: kind, Phase: PhaseBegin})
}

// End records the closing edge of an asynchronous pair.
func (t *Tracer) End(at int64, layer Layer, kind Kind, track, name string, id uint64, arg int64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: at, ID: id, Arg: arg, Track: track, Name: name, Layer: layer, Kind: kind, Phase: PhaseEnd})
}

// Instant records a point event.
func (t *Tracer) Instant(at int64, layer Layer, kind Kind, track, name string, id uint64, arg int64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: at, ID: id, Arg: arg, Track: track, Name: name, Layer: layer, Kind: kind, Phase: PhaseInstant})
}

// Len returns the number of events currently held in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
// Invariant checks require a complete stream; callers should verify this
// is zero (and size the ring up) before trusting pairing checks.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	cap64 := uint64(len(t.buf))
	if t.n <= cap64 {
		out := make([]Event, t.n)
		copy(out, t.buf[:t.n])
		return out
	}
	out := make([]Event, cap64)
	head := t.n % cap64 // oldest retained event
	copy(out, t.buf[head:])
	copy(out[cap64-head:], t.buf[:head])
	return out
}

// Observe records one latency sample (microseconds) in the named
// histogram, creating it on first use. Safe on a nil receiver.
func (t *Tracer) Observe(name string, us float64) {
	if t == nil {
		return
	}
	h := t.hists[name]
	if h == nil {
		h = &stats.Histogram{}
		t.hists[name] = h
		t.histOrder = append(t.histOrder, name)
	}
	h.Observe(us)
}

// Histogram returns the named histogram, or nil if nothing was observed
// under that name (or the tracer is nil).
func (t *Tracer) Histogram(name string) *stats.Histogram {
	if t == nil {
		return nil
	}
	return t.hists[name]
}

// NamedHistogram pairs a histogram with its registry name.
type NamedHistogram struct {
	Name string
	Hist *stats.Histogram
}

// Histograms returns every named histogram sorted by name, so reports are
// byte-stable across runs.
func (t *Tracer) Histograms() []NamedHistogram {
	if t == nil {
		return nil
	}
	names := append([]string(nil), t.histOrder...)
	sort.Strings(names)
	out := make([]NamedHistogram, 0, len(names))
	for _, n := range names {
		out = append(out, NamedHistogram{Name: n, Hist: t.hists[n]})
	}
	return out
}
