package des

import (
	"testing"
	"time"
)

// Every kernel benchmark is a function building a simulation that performs
// n of its operations when run: BenchmarkKernel* runs it with b.N, and
// TestKernelBenchmarksAllocFree counts what one run of it allocates.

// kernelScheduleResume is the dominant kernel hot path: a parked process is
// scheduled for a future instant and resumed (one Sleep). Every simulated
// service time, link delay, and interrupt a process waits for funnels
// through this path.
func kernelScheduleResume(n int) *Sim {
	s := New()
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	return s
}

// kernelQueuePutGet is the mailbox handoff between two processes: producer
// Put wakes a blocked consumer Get.
func kernelQueuePutGet(n int) *Sim {
	s := New()
	q := NewQueue(s, "bench")
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Put(s)
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
	return s
}

// kernelEventFire is one-shot event synchronization: a waiter parks on an
// Event and the firer wakes it. The events are made up front.
func kernelEventFire(n int) *Sim {
	s := New()
	evs := make([]*Event, n)
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
	return s
}

// kernelResource is semaphore churn under contention: 4 workers cycling
// through a capacity-2 resource.
func kernelResource(n int) *Sim {
	s := New()
	r := NewResource(s, "bench", 2)
	for w := 0; w < 4; w++ {
		s.Spawn("worker", func(p *Proc) {
			for i := 0; i < n/4; i++ {
				r.Acquire(p, 1)
				p.Sleep(time.Nanosecond)
				r.Release(1)
			}
		})
	}
	return s
}

// kernelTimerHeap is heap behaviour with a deep pending-event set: 1024
// staggered sleepers keep the priority queue populated so every push/pop
// pays the full sift cost.
func kernelTimerHeap(n int) *Sim {
	s := New()
	const procs = 1024
	per := n/procs + 1
	for w := 0; w < procs; w++ {
		s.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(time.Duration(1 + (w*7+i)%1000))
			}
		})
	}
	return s
}

// kernelSpawn is the whole life of a process that never parks: spawn, start
// on a pooled carrier, run an empty body, exit. One self-re-arming callback
// drives it, so each op also pays one At.
func kernelSpawn(n int) *Sim {
	s := New()
	empty := func(*Proc) {}
	var tick func()
	tick = func() {
		s.Spawn("empty", empty)
		if n--; n > 0 {
			s.At(s.Now()+1, tick)
		}
	}
	s.At(0, tick)
	return s
}

// kernelAt is a callback event: schedule, pop, call on the scheduler loop.
// It is what a never-parking body costs without a process.
func kernelAt(n int) *Sim {
	s := New()
	var tick func()
	tick = func() {
		if n--; n > 0 {
			s.At(s.Now()+1, tick)
		}
	}
	s.At(0, tick)
	return s
}

// kernelAtArg is a typed callback event: the func value is made once and the
// argument travels in the event record.
func kernelAtArg(n int) *Sim {
	s := New()
	var tick func(any)
	tick = func(arg any) {
		if n--; n > 0 {
			s.AtArg(s.Now()+1, tick, arg)
		}
	}
	s.AtArg(0, tick, s)
	return s
}

// kernelAcquireThen is kernelResource without processes: 4 callback chains
// cycling through a capacity-2 resource, so half the requests queue and are
// granted by a Release.
func kernelAcquireThen(n int) *Sim {
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
		left[w] = n / 4
		s.AtArg(0, acquire, &left[w])
	}
	return s
}

// kernelResume is a process waiting for a chain: it schedules a callback
// and Suspends, and the callback Resumes it in place — one park, one event.
func kernelResume(n int) *Sim {
	s := New()
	s.Spawn("suspender", func(p *Proc) {
		for i := 0; i < n; i++ {
			s.AtArg(s.Now()+1, Resumer, p)
			p.Suspend()
		}
	})
	return s
}

// kernelBenchmarks lists the kernel benchmarks with the most allocations an
// operation of each may make with tracing disabled.
var kernelBenchmarks = []struct {
	name string
	sim  func(n int) *Sim
	max  int
}{
	{"ScheduleResume", kernelScheduleResume, 0},
	{"QueuePutGet", kernelQueuePutGet, 0},
	{"EventFire", kernelEventFire, 0},
	{"Resource", kernelResource, 0},
	{"TimerHeap", kernelTimerHeap, 0},
	{"Spawn", kernelSpawn, 1},
	{"At", kernelAt, 0},
	{"AtArg", kernelAtArg, 0},
	{"AcquireThen", kernelAcquireThen, 0},
	{"Resume", kernelResume, 0},
}

func runKernel(b *testing.B, sim func(n int) *Sim) {
	s := sim(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkKernelScheduleResume(b *testing.B) { runKernel(b, kernelScheduleResume) }
func BenchmarkKernelQueuePutGet(b *testing.B)    { runKernel(b, kernelQueuePutGet) }
func BenchmarkKernelEventFire(b *testing.B)      { runKernel(b, kernelEventFire) }
func BenchmarkKernelResource(b *testing.B)       { runKernel(b, kernelResource) }
func BenchmarkKernelTimerHeap(b *testing.B)      { runKernel(b, kernelTimerHeap) }
func BenchmarkKernelSpawn(b *testing.B)          { runKernel(b, kernelSpawn) }
func BenchmarkKernelAt(b *testing.B)             { runKernel(b, kernelAt) }
func BenchmarkKernelAtArg(b *testing.B)          { runKernel(b, kernelAtArg) }
func BenchmarkKernelAcquireThen(b *testing.B)    { runKernel(b, kernelAcquireThen) }
func BenchmarkKernelResume(b *testing.B)         { runKernel(b, kernelResume) }
