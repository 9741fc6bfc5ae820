// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel follows the classic SimPy model: simulated activities run as
// ordinary Go functions ("processes"), exactly one executes at a time, and
// control moves between the scheduler loop and a process by a direct
// coroutine switch (iter.Pull): resuming a process is one next(), parking
// is one yield(), and neither goes through the Go scheduler or another OS
// thread. Combined with a totally ordered event queue (ordered by virtual
// time, then by scheduling sequence number) this makes every simulation run
// bit-for-bit reproducible regardless of GOMAXPROCS.
//
// A process interacts with the kernel through its *Proc handle: it can Sleep
// for a virtual duration, Wait on an Event, or block on higher level
// primitives (Resource, Queue) built from those two. Virtual time only
// advances when every process is blocked.
//
// Coroutines are expensive to create and cheap to switch, so they are
// pooled: a process gets a carrier (a coroutine that runs process bodies
// one after another) only when its start event fires, taken from a per-Sim
// list of idle carriers, and the carrier goes back on that list when the
// body returns. A spawned process that never starts owns no goroutine.
//
// Work that never blocks on another process needs no process at all: Sim.At
// schedules a plain func() that the scheduler loop runs to completion at its
// instant, and Sim.AtArg a func(any) with its argument, which costs no
// closure. At and SpawnAt take their place in the (time, sequence) order the
// same way, so a body that never parks runs at the same point under either.
// A callback has no *Proc, so it cannot Sleep, Wait, Get or Acquire; it may
// do everything else (Fire, Put, Release, TryAcquire, Spawn, At, Stop). An
// activity that only ever waits for time, hardware, a FIFO resource or a CPU
// is written as a chain of callbacks: AtArg where a process would Sleep,
// Resource.AcquireThen where it would Acquire, Resource.UseThen where it would
// Use. Chains and processes queue for a resource together and are granted in
// arrival order. A process that waits for a chain to finish Suspends, and the
// chain's last callback Resumes it in place, which costs no event.
//
// The hot path — schedule an event, pop it, resume the target process — is
// allocation-free in steady state: events are typed records (kind + target
// process) rather than closures, popped records are recycled through a free
// list, and the pending set is an inlined 4-ary heap (see heap.go).
// Different Sim instances share no state, so independent simulations may
// run concurrently on separate goroutines (see internal/experiments/runner).
package des

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"

	"repro/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately an
// alias of time.Duration so literals like 3*time.Microsecond convert
// directly.
type Duration = time.Duration

// Seconds returns the time as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the time as a floating point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// Sim is a single simulation instance. It is not safe for concurrent use by
// multiple OS threads; all interaction must happen either before Run or from
// within simulation processes. Distinct Sim instances are fully independent
// and may run in parallel.
type Sim struct {
	now      Time
	queue    []*event // 4-ary heap, see heap.go
	free     []*event // recycled event records
	seq      int64
	stopped  bool
	running  *Proc         // process executing now; nil on the scheduler loop
	idle     []*carrier    // carriers whose process returned, reused LIFO
	parked   []*Proc       // processes currently blocked inside the kernel
	starting []*Proc       // spawned but not yet started processes
	tracer   *trace.Tracer // structured event sink, nil when disabled
	procSeq  uint64
	pools    map[any]any // Pool's free lists, by element type
}

// New creates an empty simulation positioned at virtual time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// SetTracer installs a structured event tracer. Every layer built on the
// kernel reaches it through Sim; a nil tracer (the default) disables
// structured tracing, and all emission sites guard on that nil so the
// kernel hot path stays allocation-free and branch-cheap.
func (s *Sim) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// Tracer returns the installed structured tracer, or nil.
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

// schedule enqueues a typed event firing at virtual time at (which must not
// be in the past) targeting process p, and returns the event so it can be
// cancelled. The record comes from the free list when possible.
func (s *Sim) schedule(at Time, kind eventKind, p *Proc) *event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < %v", at, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = at
	e.seq = s.seq
	e.kind = kind
	e.proc = p
	s.seq++
	s.heapPush(e)
	return e
}

// At schedules fn to run on the scheduler loop at virtual time at (which
// must not be in the past). It is Spawn for work that never blocks: fn has
// no *Proc, must return without parking, and runs at exactly the position
// in the event order that a process spawned by the same call would start.
func (s *Sim) At(at Time, fn func()) {
	s.schedule(at, evCall, nil).fn = fn
}

// AtArg is At for a callback that takes an argument. A func(any) made once
// plus a pointer argument schedules without allocating, where At needs a
// fresh closure to carry the pointer; the per-WQE steps of the simulated HCA
// are scheduled this way.
func (s *Sim) AtArg(at Time, fn func(any), arg any) {
	e := s.schedule(at, evCallArg, nil)
	e.afn, e.arg = fn, arg
}

// recycle returns a popped or cancelled event record to the free list,
// dropping its process and callback references.
func (s *Sim) recycle(e *event) {
	e.proc, e.fn, e.afn, e.arg = nil, nil, nil, nil
	s.free = append(s.free, e)
}

// cancel removes a pending event. Cancelling an already-fired event is a
// no-op.
func (s *Sim) cancel(e *event) {
	if e.index >= 0 {
		s.heapRemove(e.index)
		s.recycle(e)
	}
}

// Stop terminates the run loop after the current event completes. Pending
// events are discarded and parked processes are unwound.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called, and
// returns the final virtual time. On return every process has terminated and
// no goroutine of the simulation remains. A panic in a process surfaces
// here, on the caller's goroutine, with the process named; a panic in a
// callback is already on that goroutine and propagates as it is.
func (s *Sim) Run() Time { return s.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamp <= limit and returns the current
// virtual time afterwards. Like Run, it unwinds all remaining processes
// before returning (also when it returns by panicking), so it cannot be used
// to single-step a simulation; it exists to bound runaway simulations.
func (s *Sim) RunUntil(limit Time) Time {
	defer s.unwindAll()
	for !s.stopped && len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > limit {
			break
		}
		s.heapPop()
		s.now = e.at
		p, fn, afn, arg, kind := e.proc, e.fn, e.afn, e.arg, e.kind
		s.recycle(e)
		switch kind {
		case evCall:
			fn()
			continue
		case evCallArg:
			afn(arg)
			continue
		case evSleep:
			s.unpark(p)
		case evStart:
			s.removeStarting(p)
			s.attach(p)
		}
		s.resumeProc(p)
	}
	return s.now
}

// unwindAll unblocks every process that is still parked (or never started)
// when the run loop exits, then stops the idle carriers, so no goroutine
// outlives the run. Each such Proc reports Abandoned. Unwinding order is
// deterministic: most recently parked first, then most recently spawned.
func (s *Sim) unwindAll() {
	for len(s.parked) > 0 || len(s.starting) > 0 {
		if n := len(s.parked); n > 0 {
			p := s.parked[n-1]
			s.parked[n-1] = nil
			s.parked = s.parked[:n-1]
			p.parkedIdx = -1
			p.abandoned = true
			s.resumeProc(p)
			continue
		}
		// Never started, so it has no carrier: there is nothing to resume.
		n := len(s.starting)
		p := s.starting[n-1]
		s.starting[n-1] = nil
		s.starting = s.starting[:n-1]
		s.cancel(p.startEv)
		p.startIdx = -1
		p.startEv = nil
		p.abandoned = true
	}
	for _, c := range s.idle {
		c.stop()
	}
	s.idle = nil
}

// carrier is a coroutine that runs process bodies one after another. The
// scheduler loop switches into it with next; the process it carries
// switches back with yield (to park) or by returning (the carrier then
// lists itself idle and yields).
type carrier struct {
	sim   *Sim
	proc  *Proc // process being carried, nil while idle
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// attach gives p a carrier, reusing the most recently idled one.
func (s *Sim) attach(p *Proc) {
	var c *carrier
	if n := len(s.idle); n > 0 {
		c = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		c = &carrier{sim: s}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.proc, p.carrier = p, c
}

// loop is the carrier's coroutine body: run the attached process, go idle,
// repeat until stop makes yield report false.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		c.sim.idle = append(c.sim.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the attached process to its end. An unwind of an abandoned
// process stops here; any other panic ends the carrier and propagates,
// through the scheduler's next(), out of Run with the process named. The
// stack is captured because the coroutine's frames are gone by then.
func (c *carrier) run() {
	p := c.proc
	defer func() {
		c.proc, p.carrier, p.fn = nil, nil, nil
		if r := recover(); r != nil {
			if _, ok := r.(abandonedPanic); !ok {
				panic(fmt.Sprintf("des: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
			}
		}
	}()
	p.fn(p)
}

// Proc is the handle a simulated process uses to interact with the kernel.
type Proc struct {
	sim       *Sim
	name      string
	fn        func(p *Proc)
	carrier   *carrier // set from start to return
	abandoned bool
	parkedIdx int    // index into sim.parked, -1 when running
	startIdx  int    // index into sim.starting, -1 once started
	startEv   *event // pending start event, nil once started
	id        uint64 // stable process id for trace pairing
	blockT    Time   // park time, recorded only while tracing
	resumed   bool   // Resumed before it could Suspend
}

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Abandoned reports whether the simulation stopped while this process was
// parked. It is primarily useful in deferred cleanup: the kernel unwinds
// abandoned processes with a panic that is recovered by the carrier, so
// ordinary code never observes it mid-function.
func (p *Proc) Abandoned() bool { return p.abandoned }

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. fn runs on a coroutine of its own under the kernel's
// one-at-a-time discipline. Use At instead when fn never blocks.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, fn)
}

// SpawnAt is Spawn with an explicit (future) start time.
func (s *Sim) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, name: name, fn: fn, parkedIdx: -1, id: s.procSeq}
	if s.tracer != nil {
		s.tracer.Instant(int64(s.now), trace.LayerDES, trace.KindSpawn, name, "spawn", p.id, int64(at))
	}
	p.startEv = s.schedule(at, evStart, p)
	p.startIdx = len(s.starting)
	s.starting = append(s.starting, p)
	return p
}

// removeStarting clears p's pending-start registration when its start event
// fires.
func (s *Sim) removeStarting(p *Proc) {
	i := p.startIdx
	if i < 0 {
		return
	}
	last := len(s.starting) - 1
	s.starting[i] = s.starting[last]
	s.starting[i].startIdx = i
	s.starting[last] = nil
	s.starting = s.starting[:last]
	p.startIdx = -1
	p.startEv = nil
}

// resumeProc switches to p and returns when it parks or exits. It must only
// be called from the scheduler loop.
func (s *Sim) resumeProc(p *Proc) {
	s.running = p
	p.carrier.next()
	s.running = nil
}

// park blocks the calling process until something resumes it. The caller
// must already have arranged for a wake-up (a scheduled event or a waiter
// registration on some primitive). Only the running process may park: any
// other *Proc would switch away from a carrier that is not executing.
func (p *Proc) park() {
	s := p.sim
	if s.running != p {
		s.foreignPark(p)
	}
	if s.tracer != nil {
		p.blockT = s.now
	}
	p.parkedIdx = len(s.parked)
	s.parked = append(s.parked, p)
	p.carrier.yield(struct{}{})
	if p.abandoned {
		panic(abandonedPanic{})
	}
	// A blocked span is only interesting when virtual time passed; emitting
	// after the resume keeps this off the zero-length same-instant handoffs.
	if s.tracer != nil && s.now > p.blockT {
		s.tracer.Span(int64(p.blockT), int64(s.now), trace.LayerDES, trace.KindBlocked, p.name, "blocked", p.id, 0)
	}
}

// foreignPark reports a blocking call made on a *Proc by anything other
// than the process it belongs to.
func (s *Sim) foreignPark(p *Proc) {
	by := "the scheduler loop"
	if s.running != nil {
		by = fmt.Sprintf("process %q", s.running.name)
	}
	panic(fmt.Sprintf("des: process %q blocked from %s; a *Proc may only be used by the process it was handed to", p.name, by))
}

// unpark removes p from the parked set; primitives call it right before
// scheduling p's resume so that Stop-time unwinding cannot double-resume.
func (s *Sim) unpark(p *Proc) {
	i := p.parkedIdx
	if i < 0 {
		return
	}
	last := len(s.parked) - 1
	s.parked[i] = s.parked[last]
	s.parked[i].parkedIdx = i
	s.parked[last] = nil
	s.parked = s.parked[:last]
	p.parkedIdx = -1
}

// wake unparks p and schedules its resume at the current instant. It is the
// single wake-up primitive every synchronization object uses.
func (s *Sim) wake(p *Proc) {
	s.unpark(p)
	s.schedule(s.now, evResume, p)
}

// Suspend parks the process until a chain it waits for Resumes it. It
// arranges no wake-up of its own: the chain's last callback resumes the
// process in place, at the instant and in the place in the event order where
// the process would have resumed from a wait of its own, so the wait costs
// the process one park and the kernel no event. A chain that ended before
// the process suspended (every step of it was free) resumed it already, and
// Suspend returns at once.
func (p *Proc) Suspend() {
	if p.resumed {
		p.resumed = false
		return
	}
	p.park()
	p.resumed = false
}

// Resume hands control to p, which waits in Suspend: at once, returning when
// p parks again or returns, when a callback on the scheduler loop calls it;
// by making p's next Suspend return at once when p calls it itself, the
// chain it started having ended before it could suspend. Any other caller
// panics.
func (s *Sim) Resume(p *Proc) {
	switch {
	case s.running == p:
		p.resumed = true
	case s.running != nil:
		panic(fmt.Sprintf("des: Resume of %q from process %q; only a callback may resume in place", p.name, s.running.name))
	case p.parkedIdx < 0:
		panic(fmt.Sprintf("des: Resume of %q, which is not parked", p.name))
	default:
		s.unpark(p)
		s.resumeProc(p)
	}
}

// Resumer is Resume as the last step of a chain: a process hands it and
// itself to a chain's ...Then and Suspends, which is how every process form
// of a chain (memreg.Manager.Get of GetThen, say) waits.
func Resumer(p any) {
	q := p.(*Proc)
	q.sim.Resume(q)
}

// abandonedPanic unwinds a process whose simulation has stopped.
type abandonedPanic struct{}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.schedule(s.now+Time(d), evSleep, p)
	p.park()
}

// Yield cedes control so that other events scheduled at the current instant
// run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
