package des

// Queue is an unbounded FIFO mailbox connecting simulated processes.
// Put never blocks; Get blocks while the queue is empty, and WaitThen is its
// wait for code on the scheduler loop. Multiple getters are served in the
// order they began waiting.
//
// Items and waiting getters live in ring buffers, so popping the front
// neither pins the backing array nor retains references to delivered items
// (the old q.items[1:] re-slicing did both).
type Queue struct {
	sim     *Sim
	name    string
	items   Ring[any]
	getters Ring[getter]
	closed  bool
}

// getter is a waiting Get: a parked process, or (proc nil) a callback to
// schedule once an item is queued or the queue closes.
type getter struct {
	proc *Proc
	fn   func(any)
	arg  any
}

// NewQueue creates an empty queue bound to s.
func NewQueue(s *Sim, name string) *Queue { return &Queue{sim: s, name: name} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.items.Len() }

// Put appends v and wakes the longest-waiting getter, if any.
func (q *Queue) Put(v any) {
	if q.closed {
		panic("des: put on closed queue " + q.name)
	}
	q.items.Push(v)
	q.wakeOne()
}

// Close marks the queue closed. Blocked and future Gets return (nil, false)
// once the queue drains.
func (q *Queue) Close() {
	q.closed = true
	// Wake all getters; they will either receive remaining items or observe
	// the close.
	for q.getters.Len() > 0 {
		q.wakeOne()
	}
}

func (q *Queue) wakeOne() {
	if q.getters.Len() == 0 {
		return
	}
	g := q.getters.Pop()
	if g.proc != nil {
		q.sim.wake(g.proc)
	} else {
		q.sim.AtArg(q.sim.now, g.fn, g.arg)
	}
}

// Get removes and returns the oldest item. ok is false if the queue is
// closed and empty.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	for q.items.Len() == 0 {
		if q.closed {
			return nil, false
		}
		q.getters.Push(getter{proc: p})
		p.park()
	}
	return q.items.Pop(), true
}

// WaitThen is Get's wait for code running on the scheduler loop: fn(arg)
// runs once the queue holds an item or is closed — at once if it already
// does, otherwise when a Put or Close wakes it, as an event at that instant in
// the place the resume of a parked getter would take. fn takes the item with
// TryGet. Callbacks and processes wait in one line and are woken in arrival
// order.
func (q *Queue) WaitThen(fn func(any), arg any) {
	if q.items.Len() > 0 || q.closed {
		fn(arg)
		return
	}
	q.getters.Push(getter{fn: fn, arg: arg})
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue) TryGet() (v any, ok bool) {
	if q.items.Len() == 0 {
		return nil, false
	}
	return q.items.Pop(), true
}
