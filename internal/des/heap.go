package des

// The pending-event set is an inlined 4-ary heap ordered by (at, seq).
//
// A 4-ary heap halves the tree depth of a binary heap, trading a few extra
// comparisons per level for far fewer cache-missing hops — the classic win
// for priority queues whose elements are pointers. Inlining the sift loops
// (instead of going through container/heap's interface) removes the
// dynamic dispatch and the any-boxing of Push/Pop, which together with the
// event free list makes the schedule→resume path allocation-free.

// eventKind discriminates what firing an event does. The dominant kinds
// target a *Proc directly so no closure is ever allocated.
type eventKind uint8

const (
	// evSleep resumes a process that parked itself via Sleep: the kernel
	// unparks it at fire time (nothing else can wake a sleeper).
	evSleep eventKind = iota
	// evResume resumes a process a primitive (Queue, Event, Resource, ...)
	// has already unparked; the wake-up was scheduled at unpark time.
	evResume
	// evStart attaches a carrier to a freshly spawned process and performs
	// its first resume.
	evStart
	// evCall runs a callback on the scheduler loop (Sim.At).
	evCall
	// evCallArg runs a callback that takes its argument from the event
	// record (Sim.AtArg), so scheduling it allocates no closure.
	evCallArg
)

// event is a scheduled kernel action. Instances are recycled through
// Sim.free once popped or cancelled, so steady-state scheduling does not
// allocate.
type event struct {
	at    Time
	seq   int64 // tie-breaker: schedule order
	proc  *Proc
	fn    func()    // evCall only
	afn   func(any) // evCallArg only
	arg   any       // evCallArg only
	index int       // heap index, -1 when popped/cancelled
	kind  eventKind
}

// eventLess orders events by virtual time, then schedule order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts e into the pending set.
func (s *Sim) heapPush(e *event) {
	s.queue = append(s.queue, e)
	s.siftUp(len(s.queue)-1, e)
}

// heapPop removes and returns the earliest event.
func (s *Sim) heapPop() *event {
	q := s.queue
	e := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	e.index = -1
	return e
}

// heapRemove deletes the event at heap index i (for cancellation).
func (s *Sim) heapRemove(i int) {
	q := s.queue
	n := len(q) - 1
	e := q[i]
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if i < n {
		s.siftDown(i, last)
		if s.queue[i] == last {
			s.siftUp(i, last)
		}
	}
	e.index = -1
}

// siftUp places e at index i, moving parents down while they sort after e.
func (s *Sim) siftUp(i int, e *event) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

// siftDown places e at index i, promoting the smallest child while it sorts
// before e.
func (s *Sim) siftDown(i int, e *event) {
	q := s.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(q[c], q[best]) {
				best = c
			}
		}
		if !eventLess(q[best], e) {
			break
		}
		q[i] = q[best]
		q[i].index = i
		i = best
	}
	q[i] = e
	e.index = i
}
