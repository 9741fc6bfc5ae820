package des

// Resource is a FIFO counting semaphore with utilization accounting.
// It models contended hardware: CPU cores, a DMA engine, a disk, the
// transmit side of a network port. Acquire blocks until the requested
// units are available; requests are granted strictly in arrival order
// (no barging), which keeps simulations deterministic and models the
// in-order hardware queues the paper's analysis depends on.
type Resource struct {
	sim      *Sim
	name     string
	capacity int
	inUse    int
	waiters  Ring[resWaiter]

	// busy accounting: integral of inUse over time, for utilization
	// reports. busyIntegral covers [accounting start, lastChange];
	// lastChange is the time of the last occupancy *change* (or reset), so
	// the integral over (lastChange, now] is the exact linear segment
	// inUse × elapsed and windowed queries within it stay exact.
	busyIntegral float64 // unit-seconds
	lastChange   Time
}

// resWaiter is a queued request: a parked process, or (proc nil) a callback
// to schedule once the units are granted.
type resWaiter struct {
	proc *Proc
	fn   func(any)
	arg  any
	n    int
}

// NewResource creates a resource with the given capacity (must be > 0).
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{sim: s, name: name, capacity: capacity}
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// accumulate folds the elapsed interval into the busy integral.
func (r *Resource) accumulate() {
	now := r.sim.now
	r.busyIntegral += float64(r.inUse) * Time(now-r.lastChange).Seconds()
	r.lastChange = now
}

// Acquire blocks p until n units are available and takes them.
// n must be between 1 and the capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic("des: invalid acquire count for resource " + r.name)
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		return
	}
	r.waiters.Push(resWaiter{proc: p, n: n})
	p.park()
}

// AcquireThen is Acquire for code running on the scheduler loop: it takes n
// units and calls fn(arg), at once where Acquire would return without
// parking, otherwise when a Release grants the request — as an event at that
// instant, in the place the resume of a parked process would take. Callbacks
// and processes wait in one queue, so grants stay in arrival order whatever
// the mix.
func (r *Resource) AcquireThen(n int, fn func(any), arg any) {
	if n <= 0 || n > r.capacity {
		panic("des: invalid acquire count for resource " + r.name)
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		fn(arg)
		return
	}
	r.waiters.Push(resWaiter{fn: fn, arg: arg, n: n})
}

// TryAcquire takes n units if immediately available and no earlier waiter is
// queued; it reports whether it succeeded.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic("des: invalid acquire count for resource " + r.name)
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.accumulate()
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and hands them to queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("des: invalid release count for resource " + r.name)
	}
	r.accumulate()
	r.inUse -= n
	s := r.sim
	for r.waiters.Len() > 0 {
		w := r.waiters.Peek()
		if r.inUse+w.n > r.capacity {
			break // strict FIFO: do not let later small requests overtake
		}
		r.waiters.Pop()
		r.inUse += w.n
		if w.proc != nil {
			s.wake(w.proc)
		} else {
			s.AtArg(s.now, w.fn, w.arg)
		}
	}
}

// Use acquires n units, sleeps for d, and releases: the common
// "occupy the device for a service time" pattern.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Hold is the state of one UseThen in flight, kept in storage its caller
// owns (and reuses) so that a chain's occupancy allocates nothing.
type Hold struct {
	r   *Resource
	d   Duration
	fn  func(any)
	arg any
}

// UseThen is Use of one unit for code running on the scheduler loop: it
// takes Use's three steps as a chain — AcquireThen, an event d later,
// Release — so each happens at the instant and in the place a process
// calling Use would take it, then calls fn(arg). h holds the chain's state
// until fn is called.
func (r *Resource) UseThen(h *Hold, d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	h.r, h.d, h.fn, h.arg = r, d, fn, arg
	r.AcquireThen(1, held, h)
}

func held(a any) {
	h := a.(*Hold)
	s := h.r.sim
	s.AtArg(s.now+Time(h.d), heldDone, h)
}

func heldDone(a any) {
	h := a.(*Hold)
	h.r.Release(1)
	fn, arg := h.fn, h.arg
	h.fn, h.arg = nil, nil
	fn(arg)
}

// BusySeconds returns the integral of units-in-use over virtual time, in
// unit-seconds, up to the current instant. It does not disturb lastChange,
// so windowed queries keep their exact current segment.
func (r *Resource) BusySeconds() float64 {
	return r.busyIntegral + float64(r.inUse)*Time(r.sim.now-r.lastChange).Seconds()
}

// BusySecondsSince returns unit-seconds consumed in [start, now). The
// result is exact when start falls inside the current linear segment (no
// occupancy change since start) — which covers the common "snapshot after
// the work finished" window — and is otherwise the total integral clamped
// to the window's physical maximum (capacity × elapsed), since the
// occupancy step history before the segment is not retained.
func (r *Resource) BusySecondsSince(start Time) float64 {
	now := r.sim.now
	if start <= 0 {
		return r.BusySeconds()
	}
	if start >= r.lastChange {
		return float64(r.inUse) * Time(now-start).Seconds()
	}
	busy := r.BusySeconds()
	if max := float64(r.capacity) * Time(now-start).Seconds(); busy > max {
		return max
	}
	return busy
}

// Utilization returns average utilization (0..1) over the window from start
// to the current virtual time (see BusySecondsSince for window semantics).
func (r *Resource) Utilization(start Time) float64 {
	elapsed := Time(r.sim.now - start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return r.BusySecondsSince(start) / (float64(r.capacity) * elapsed)
}
