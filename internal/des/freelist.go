package des

// FreeList is a LIFO of objects waiting to be reused. Get makes a new (zero)
// object only when the list is empty, that is when every object made before
// is in use, so the list never holds more than were in use at once. Whoever
// puts an object back zeroes it first: what waits here must pin nothing.
//
// The zero value is an empty list ready for use. A list belongs to one
// simulation (the sweep runner runs several at once) and, like everything in
// this package, relies on the kernel's one-at-a-time execution.
type FreeList[T any] []*T

// Get returns the object put back last, or a new one.
func (f *FreeList[T]) Get() *T {
	l := *f
	n := len(l)
	if n == 0 {
		return new(T)
	}
	x := l[n-1]
	l[n-1] = nil
	*f = l[:n-1]
	return x
}

// noReuse, which tests set, makes Put drop what it is given, so that every
// Get allocates: a simulation must not tell the difference, and a test that
// runs one both ways shows that it does not. Off, it costs a branch.
var noReuse bool

// Put takes x back for a later Get.
func (f *FreeList[T]) Put(x *T) {
	if noReuse {
		return
	}
	*f = append(*f, x)
}
