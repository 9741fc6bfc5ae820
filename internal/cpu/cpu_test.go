package cpu

import (
	"slices"
	"testing"
	"time"

	"repro/internal/des"
)

func TestWorkContendsOnCores(t *testing.T) {
	sim := des.New()
	m := New(sim, "host", 2)
	var last des.Time
	for i := 0; i < 4; i++ {
		sim.Spawn("w", func(p *des.Proc) {
			m.Work(p, 10*time.Millisecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	sim.Run()
	// 4 tasks of 10ms on 2 cores: 20ms total.
	if last != des.Time(20*time.Millisecond) {
		t.Fatalf("finished at %v, want 20ms", last)
	}
}

func TestUtilizationWindow(t *testing.T) {
	sim := des.New()
	m := New(sim, "host", 4)
	sim.Spawn("w", func(p *des.Proc) {
		m.Work(p, 100*time.Millisecond)
		m.ResetWindow()
		m.Work(p, 50*time.Millisecond)
		p.Sleep(50 * time.Millisecond)
		// Window: 100ms elapsed, 50ms busy on 4 cores = 12.5%.
		if u := m.Utilization(); u < 0.124 || u > 0.126 {
			t.Errorf("utilization = %v, want 0.125", u)
		}
	})
	sim.Run()
}

func TestCopyCostFractionalNs(t *testing.T) {
	sim := des.New()
	m := New(sim, "host", 1)
	m.CopyNsPerByte = 0.5
	sim.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		m.Copy(p, 1<<20)
		elapsed := p.Now() - start
		want := des.Time(1 << 19) // 1 MiB * 0.5ns
		if elapsed != want {
			t.Errorf("copy took %v, want %v", elapsed, want)
		}
	})
	sim.Run()
}

func TestInterruptsCountedAndCharged(t *testing.T) {
	sim := des.New()
	m := New(sim, "host", 1)
	m.InterruptCost = 5 * time.Microsecond
	sim.Spawn("w", func(p *des.Proc) {
		m.ResetWindow()
		for i := 0; i < 10; i++ {
			m.Interrupt(p)
		}
		if m.Interrupts() != 10 {
			t.Errorf("interrupts = %d", m.Interrupts())
		}
		if b := m.BusySeconds(); b < 49e-6 || b > 51e-6 {
			t.Errorf("busy = %v, want 50µs", b)
		}
	})
	sim.Run()
}

// TestWorkThenMatchesWork: charges taken as callback chains finish at the
// instants the same charges taken by processes do, whatever the mix, and
// leave no core held.
func TestWorkThenMatchesWork(t *testing.T) {
	run := func(chain func(i int) bool) []des.Time {
		sim := des.New()
		m := New(sim, "host", 2)
		m.InterruptCost = 3 * time.Microsecond
		done := make([]des.Time, 6)
		charges := make([]Charge, len(done))
		for i := range done {
			d := time.Duration(i%3) * 2 * time.Microsecond // 0, 2 and 4 µs
			at := des.Time(i/2) * des.Time(time.Microsecond)
			if chain(i) {
				sim.At(at, func() {
					m.WorkThen(&charges[i], d, func(any) {
						m.InterruptThen(&charges[i], func(any) { done[i] = sim.Now() }, nil)
					}, nil)
				})
				continue
			}
			sim.SpawnAt(at, "w", func(p *des.Proc) {
				m.Work(p, d)
				m.Interrupt(p)
				done[i] = p.Now()
			})
		}
		sim.Run()
		if m.Interrupts() != int64(len(done)) {
			t.Errorf("interrupts = %d, want %d", m.Interrupts(), len(done))
		}
		if busy, want := m.TotalBusySeconds(), 30e-6; busy < want-1e-12 || busy > want+1e-12 {
			t.Errorf("busy = %v s, want %v (a core still held, or a charge lost)", busy, want)
		}
		return done
	}
	want := run(func(int) bool { return false })
	for name, chain := range map[string]func(int) bool{
		"all":  func(int) bool { return true },
		"odd":  func(i int) bool { return i%2 == 1 },
		"even": func(i int) bool { return i%2 == 0 },
	} {
		if got := run(chain); !slices.Equal(got, want) {
			t.Errorf("%s chained: finished at %v, processes at %v", name, got, want)
		}
	}
}

func TestZeroCostOpsFree(t *testing.T) {
	sim := des.New()
	m := New(sim, "host", 1)
	sim.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		m.Copy(p, 1<<20)
		m.Interrupt(p)
		m.Syscall(p)
		m.Work(p, 0)
		if p.Now() != start {
			t.Error("zero-cost model should charge nothing")
		}
	})
	sim.Run()
}
