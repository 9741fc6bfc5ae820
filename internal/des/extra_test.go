package des

import (
	"fmt"
	"testing"
	"time"
)

func TestTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 2)
	s.Spawn("p", func(p *Proc) {
		if !r.TryAcquire(2) {
			t.Error("try on idle resource failed")
		}
		if r.TryAcquire(1) {
			t.Error("try on full resource succeeded")
		}
		r.Release(2)
		if !r.TryAcquire(1) {
			t.Error("try after release failed")
		}
		r.Release(1)
	})
	s.Run()
}

func TestTryAcquireNoBargePastWaiters(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(100)
		r.Release(1)
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 1) // queued behind holder
		r.Release(1)
	})
	s.Spawn("barger", func(p *Proc) {
		p.Sleep(2)
		if r.TryAcquire(1) {
			t.Error("TryAcquire barged past a queued waiter")
			r.Release(1)
		}
	})
	s.Run()
}

func TestResourceUse(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var end Time
	s.Spawn("u", func(p *Proc) {
		r.Use(p, 1, 42*time.Nanosecond)
		end = p.Now()
	})
	s.Run()
	if end != 42 {
		t.Fatalf("end = %v", end)
	}
	if r.InUse() != 0 {
		t.Fatal("resource not released by Use")
	}
}

func TestWaitAllMixedFiredState(t *testing.T) {
	s := New()
	a, b, c := NewEvent(s), NewEvent(s), NewEvent(s)
	done := false
	s.Spawn("firer", func(p *Proc) {
		a.Fire(nil) // already fired before anyone waits
		p.Sleep(10)
		b.Fire(nil)
		p.Sleep(10)
		c.Fire(nil)
	})
	s.Spawn("waiter", func(p *Proc) {
		p.Sleep(1)
		WaitAll(p, a, b, c)
		if p.Now() != 20 {
			t.Errorf("woke at %v, want 20", p.Now())
		}
		done = true
	})
	s.Run()
	if !done {
		t.Fatal("WaitAll never completed")
	}
}

func TestQueueTryGet(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	s.Spawn("p", func(p *Proc) {
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty queue succeeded")
		}
		q.Put(5)
		v, ok := q.TryGet()
		if !ok || v != 5 {
			t.Errorf("TryGet = %v %v", v, ok)
		}
	})
	s.Run()
}

func TestYieldOrdersBehindSameTimeEvents(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	s.Run()
	want := "[a1 b1 a2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1_500_000_000)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tm.Seconds())
	}
	if tm.Micros() != 1.5e6 {
		t.Errorf("Micros = %v", tm.Micros())
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
