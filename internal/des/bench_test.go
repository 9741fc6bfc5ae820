package des

import (
	"testing"
	"time"
)

// BenchmarkKernelScheduleResume measures the dominant kernel hot path: a
// parked process is scheduled for a future instant and resumed (one Sleep).
// Every simulated service time, link delay, and interrupt in the system
// funnels through this path.
func BenchmarkKernelScheduleResume(b *testing.B) {
	s := New()
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelQueuePutGet measures the mailbox handoff between two
// processes: producer Put wakes a blocked consumer Get.
func BenchmarkKernelQueuePutGet(b *testing.B) {
	s := New()
	q := NewQueue(s, "bench")
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(time.Nanosecond)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelEventFire measures one-shot event synchronization: a waiter
// parks on a fresh Event and the firer wakes it.
func BenchmarkKernelEventFire(b *testing.B) {
	s := New()
	evs := make([]*Event, b.N)
	for i := range evs {
		evs[i] = NewEvent(s)
	}
	s.Spawn("waiter", func(p *Proc) {
		for _, ev := range evs {
			ev.Wait(p)
		}
	})
	s.Spawn("firer", func(p *Proc) {
		for _, ev := range evs {
			p.Sleep(time.Nanosecond)
			ev.Fire(nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelResource measures semaphore churn under contention:
// 4 workers cycling through a capacity-2 resource.
func BenchmarkKernelResource(b *testing.B) {
	s := New()
	r := NewResource(s, "bench", 2)
	for w := 0; w < 4; w++ {
		s.Spawn("worker", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Acquire(p, 1)
				p.Sleep(time.Nanosecond)
				r.Release(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelTimerHeap measures heap behaviour with a deep pending-event
// set: 1024 staggered sleepers keep the priority queue populated so every
// push/pop pays the full sift cost.
func BenchmarkKernelTimerHeap(b *testing.B) {
	s := New()
	const procs = 1024
	per := b.N/procs + 1
	for w := 0; w < procs; w++ {
		w := w
		s.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(time.Duration(1 + (w*7+i)%1000))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelSpawn measures the whole life of a process that never
// parks: spawn, start on a pooled carrier, run an empty body, exit. One
// self-re-arming callback drives it, so each op also pays one At.
func BenchmarkKernelSpawn(b *testing.B) {
	s := New()
	empty := func(*Proc) {}
	n := b.N
	var tick func()
	tick = func() {
		s.Spawn("empty", empty)
		if n--; n > 0 {
			s.At(s.Now()+1, tick)
		}
	}
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelAt measures a callback event: schedule, pop, call on the
// scheduler loop. It is what a never-parking body costs without a process.
func BenchmarkKernelAt(b *testing.B) {
	s := New()
	n := b.N
	var tick func()
	tick = func() {
		if n--; n > 0 {
			s.At(s.Now()+1, tick)
		}
	}
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelAtArg measures a typed callback event: the func value is
// made once and the argument travels in the event record.
func BenchmarkKernelAtArg(b *testing.B) {
	s := New()
	n := b.N
	var tick func(any)
	tick = func(arg any) {
		if n--; n > 0 {
			s.AtArg(s.Now()+1, tick, arg)
		}
	}
	s.AtArg(0, tick, s)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelAcquireThen is BenchmarkKernelResource without processes:
// 4 callback chains cycling through a capacity-2 resource, so half the
// requests queue and are granted by a Release.
func BenchmarkKernelAcquireThen(b *testing.B) {
	s := New()
	r := NewResource(s, "bench", 2)
	left := make([]int, 4)
	var acquire, hold, release func(any)
	acquire = func(arg any) { r.AcquireThen(1, hold, arg) }
	hold = func(arg any) { s.AtArg(s.Now()+1, release, arg) }
	release = func(arg any) {
		r.Release(1)
		if n := arg.(*int); *n > 0 {
			*n--
			acquire(arg)
		}
	}
	for w := range left {
		left[w] = b.N / 4
		s.AtArg(0, acquire, &left[w])
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
