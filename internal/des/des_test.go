package des

import (
	"fmt"
	"testing"
	"time"
)

func TestSleepOrdering(t *testing.T) {
	s := New()
	var log []string
	s.Spawn("a", func(p *Proc) {
		p.Sleep(10 * time.Nanosecond)
		log = append(log, fmt.Sprintf("a@%d", p.Now()))
		p.Sleep(20 * time.Nanosecond)
		log = append(log, fmt.Sprintf("a@%d", p.Now()))
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(15 * time.Nanosecond)
		log = append(log, fmt.Sprintf("b@%d", p.Now()))
	})
	end := s.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []string{"a@10", "b@15", "a@30"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(5 * time.Nanosecond)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		q := NewQueue(s, "q")
		for i := 0; i < 4; i++ {
			i := i
			s.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Duration(1+i) * time.Nanosecond)
					q.Put(fmt.Sprintf("%d.%d", i, j))
				}
			})
		}
		s.Spawn("cons", func(p *Proc) {
			for k := 0; k < 12; k++ {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				log = append(log, fmt.Sprintf("%v@%d", v, p.Now()))
			}
		})
		s.Run()
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic runs:\n%v\n%v", a, b)
	}
	if len(a) != 12 {
		t.Fatalf("consumed %d items, want 12", len(a))
	}
}

func TestEventBroadcast(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	got := 0
	for i := 0; i < 5; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			v := ev.Wait(p)
			if v.(string) != "go" {
				t.Errorf("event value = %v", v)
			}
			got++
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(100 * time.Nanosecond)
		ev.Fire("go")
	})
	s.Run()
	if got != 5 {
		t.Fatalf("woke %d waiters, want 5", got)
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	s.Spawn("firer", func(p *Proc) { ev.Fire(42) })
	var got any
	s.Spawn("late", func(p *Proc) {
		p.Sleep(time.Microsecond)
		got = ev.Wait(p)
	})
	s.Run()
	if got != 42 {
		t.Fatalf("late waiter got %v, want 42", got)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double fire")
		}
	}()
	ev.Fire(nil)
	ev.Fire(nil)
}

// An event that lives inside another object is initialised in place, and
// initialised again when its owner is reused: the second round must wait and
// wake like the first, and see the second value.
func TestEventInitInPlaceAndAgain(t *testing.T) {
	s := New()
	var slot struct {
		id   int
		done Event
	}
	var got []any
	s.Spawn("owner", func(p *Proc) {
		for round := 1; round <= 2; round++ {
			slot.id = round
			slot.done.Init(s)
			if slot.done.Fired() || slot.done.Value() != nil {
				t.Errorf("round %d: event reads as fired after Init", round)
			}
			s.At(s.Now()+Time(time.Microsecond), func() { slot.done.Fire(slot.id * 10) })
			got = append(got, slot.done.Wait(p), slot.done.Wait(p)) // the second finds it fired
		}
	})
	s.Run()
	if fmt.Sprint(got) != "[10 10 20 20]" {
		t.Fatalf("waits returned %v, want [10 10 20 20]", got)
	}
	if now := s.Now(); now != Time(2*time.Microsecond) {
		t.Fatalf("ended at %v, want 2µs: each round must really wait", now)
	}
}

func TestEventInitWithWaitersPanics(t *testing.T) {
	s := New()
	ev := NewEvent(s)
	s.Spawn("waiter", func(p *Proc) { ev.Wait(p) })
	s.Spawn("reuser", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Init of an event a process waits on did not panic")
			}
			ev.Fire(nil)
		}()
		p.Sleep(time.Microsecond)
		ev.Init(s)
	})
	s.Run()
}

func TestResourceFIFOAndCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, "cores", 2)
	var order []string
	worker := func(name string, arrive, hold Duration) {
		s.Spawn(name, func(p *Proc) {
			p.Sleep(arrive)
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(hold)
			r.Release(1)
			order = append(order, name+"-")
		})
	}
	worker("a", 0, 100)
	worker("b", 1, 100)
	worker("c", 2, 10) // must wait for a or b despite short hold
	worker("d", 3, 10)
	s.Run()
	// c and d cannot start before a and b release at t=100 and t=101; the
	// releasing process resumes before the waiter it woke.
	want := "[a+ b+ a- c+ b- d+ c- d-]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestResourceMultiUnitNoBarging(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 4)
	var order []string
	s.Spawn("big", func(p *Proc) {
		r.Acquire(p, 3)
		order = append(order, "big")
		p.Sleep(10)
		r.Release(3)
	})
	s.Spawn("big2", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 3) // needs 3, only 1 free -> waits
		order = append(order, "big2")
		p.Sleep(10)
		r.Release(3)
	})
	s.Spawn("small", func(p *Proc) {
		p.Sleep(2)
		r.Acquire(p, 1) // 1 free, but big2 queued first: must not barge
		order = append(order, "small")
		r.Release(1)
	})
	s.Run()
	want := "[big big2 small]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, "disk", 1)
	s.Spawn("u", func(p *Proc) {
		r.Use(p, 1, 500*time.Millisecond)
		p.Sleep(500 * time.Millisecond)
	})
	s.Run()
	u := r.Utilization(0)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	s := New()
	q := NewQueue(s, "q")
	var got []any
	s.Spawn("c", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	s.Spawn("p", func(p *Proc) {
		q.Put(1)
		q.Put(2)
		p.Sleep(10)
		q.Close()
	})
	s.Run()
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("got %v", got)
	}
}

func TestStopUnwindsParkedProcesses(t *testing.T) {
	s := New()
	ev := NewEvent(s) // never fired
	cleaned := false
	s.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		ev.Wait(p)
		t.Error("stuck process should never resume normally")
	})
	s.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Second)
		s.Stop()
	})
	s.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run for abandoned process")
	}
}

func TestSpawnNeverStartedUnwound(t *testing.T) {
	s := New()
	s.Spawn("stopper", func(p *Proc) { s.Stop() })
	ran := false
	s.SpawnAt(Time(time.Hour), "late", func(p *Proc) { ran = true })
	s.Run()
	if ran {
		t.Fatal("late process should not have started")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	r := NewRand(1)
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Float64() < 0.25 {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Fatalf("Float64 quartile count = %d, want ~2500", n)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(42)
	var sum time.Duration
	const iters = 20000
	for i := 0; i < iters; i++ {
		sum += r.ExpDuration(time.Millisecond)
	}
	mean := sum / iters
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Fatalf("exp mean = %v, want ~1ms", mean)
	}
}

func TestRunUntilBoundsRunawaySim(t *testing.T) {
	s := New()
	s.Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	end := s.RunUntil(Time(5 * time.Second))
	if end > Time(5*time.Second) {
		t.Fatalf("ran past limit: %v", end)
	}
}
