package des

import (
	"testing"
)

func TestRingFIFOAcrossGrowthAndWrap(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Interleave pushes and pops so the window slides across several
	// wrap-arounds and two growth steps.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	if r.Len() != next-want {
		t.Fatalf("Len = %d, want %d", r.Len(), next-want)
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
}

func TestRingPeek(t *testing.T) {
	var r Ring[string]
	r.Push("a")
	r.Push("b")
	if r.Peek() != "a" {
		t.Fatalf("Peek = %q", r.Peek())
	}
	if r.Pop() != "a" || r.Peek() != "b" {
		t.Fatal("Peek after Pop wrong")
	}
}

func TestRingEmptyOpsPanic(t *testing.T) {
	for _, op := range []struct {
		name string
		fn   func(*Ring[int])
	}{
		{"Pop", func(r *Ring[int]) { r.Pop() }},
		{"Peek", func(r *Ring[int]) { r.Peek() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty ring did not panic", op.name)
				}
			}()
			var r Ring[int]
			op.fn(&r)
		}()
	}
}

// TestRingPopDropsReferences is the memory-retention regression test for
// the old `q = q[1:]` idiom: after Pop, no slot of the backing array may
// still reference the popped element.
func TestRingPopDropsReferences(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 20; i++ {
		v := i
		r.Push(&v)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("buf[%d] still references a popped element", i)
		}
	}
}

// TestQueueGetDropsReferences asserts the same property through the Queue
// API: delivered items must not be pinned by the queue's internal storage
// (the seed's items[1:] re-slicing kept every delivered item reachable).
func TestQueueGetDropsReferences(t *testing.T) {
	s := New()
	q := NewQueue(s, "ret")
	s.Spawn("prod", func(p *Proc) {
		for i := 0; i < 40; i++ {
			buf := make([]byte, 1<<10)
			q.Put(&buf)
			if i%8 == 0 {
				p.Sleep(1) // force getter park/wake interleavings
			}
		}
	})
	s.Spawn("cons", func(p *Proc) {
		for i := 0; i < 40; i++ {
			q.Get(p)
		}
	})
	s.Run()
	if q.items.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.items.Len())
	}
	for i, v := range q.items.buf {
		if v != nil {
			t.Fatalf("items.buf[%d] still references a delivered item", i)
		}
	}
	for i, g := range q.getters.buf {
		if g.proc != nil {
			t.Fatalf("getters.buf[%d] still references a woken process", i)
		}
	}
}

// TestResourceWaiterSlotsCleared asserts the resource waiter ring drops
// process references once waiters are granted.
func TestResourceWaiterSlotsCleared(t *testing.T) {
	s := New()
	r := NewResource(s, "res", 1)
	for i := 0; i < 12; i++ {
		s.Spawn("w", func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(1)
			r.Release(1)
		})
	}
	s.Run()
	if r.waiters.Len() != 0 {
		t.Fatalf("waiters not drained: %d left", r.waiters.Len())
	}
	for i, w := range r.waiters.buf {
		if w.proc != nil {
			t.Fatalf("waiters.buf[%d] still references a granted process", i)
		}
	}
}

// A FreeList hands back what was put back last, makes a new zero object only
// when it is empty, and keeps no reference to what it has handed out.
func TestFreeListLIFO(t *testing.T) {
	var f FreeList[int]
	a, b := f.Get(), f.Get()
	if *a != 0 || a == b || len(f) != 0 {
		t.Fatalf("empty list: Get returned %v and %v, list holds %d", *a, *b, len(f))
	}
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b || len(f) != 1 || f[:2][1] != nil {
		t.Fatalf("Get after Put(a), Put(b): got a=%v, %d left, vacated slot %v; want b, 1, nil", got == a, len(f), f[:2][1])
	}
	if got := f.Get(); got != a || len(f) != 0 {
		t.Fatalf("second Get did not return the first object put back")
	}
}
