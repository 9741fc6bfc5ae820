package des

// Event is a one-shot synchronization point carrying an optional value.
// Any number of processes may Wait on it; firing it wakes them all (in the
// deterministic order they began waiting). Waiting on an already-fired event
// returns immediately.
type Event struct {
	sim     *Sim
	fired   bool
	value   any
	first   *Proc   // the first waiter, held inline: most events have only one
	waiters []*Proc // the second waiter onwards
}

// NewEvent creates an unfired event bound to s.
func NewEvent(s *Sim) *Event {
	e := new(Event)
	e.Init(s)
	return e
}

// Init makes e an unfired event bound to s, in place: for an event that lives
// inside another object, and for waiting again on one whose owner is reused.
// It panics if a process is still waiting on e.
func (e *Event) Init(s *Sim) {
	if e.first != nil || len(e.waiters) > 0 {
		panic("des: Init of an event with waiters")
	}
	*e = Event{sim: s}
}

// Fired reports whether the event has been fired.
func (e *Event) Fired() bool { return e.fired }

// Value returns the value passed to Fire, or nil if not yet fired.
func (e *Event) Value() any { return e.value }

// Fire marks the event fired with the given value and schedules every waiter
// to resume at the current virtual time. Firing twice panics: events are
// one-shot by design, and double-firing always indicates a protocol bug in
// the caller.
func (e *Event) Fire(value any) {
	if e.fired {
		panic("des: event fired twice")
	}
	e.fired = true
	e.value = value
	s := e.sim
	if e.first != nil {
		s.wake(e.first)
		e.first = nil
	}
	for i, p := range e.waiters {
		s.wake(p)
		e.waiters[i] = nil
	}
	e.waiters = nil
}

// TryFire fires the event if it has not fired yet and reports whether it
// did. Unlike Fire, a lost race is not a bug: protocol engines use it when
// two legitimate sources can complete the same wait — a reply arriving and
// a call timer expiring, for example — and whichever fires first
// wins while the loser becomes a no-op.
func (e *Event) TryFire(value any) bool {
	if e.fired {
		return false
	}
	e.Fire(value)
	return true
}

// Wait blocks p until the event fires and returns the fired value.
func (e *Event) Wait(p *Proc) any {
	if e.fired {
		return e.value
	}
	if e.first == nil {
		e.first = p
	} else {
		e.waiters = append(e.waiters, p)
	}
	p.park()
	return e.value
}

// WaitAll blocks until every event in evs has fired.
func WaitAll(p *Proc, evs ...*Event) {
	for _, e := range evs {
		e.Wait(p)
	}
}
