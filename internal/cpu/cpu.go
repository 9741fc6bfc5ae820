// Package cpu models the processors of a simulated host.
//
// A Model is a fixed pool of cores (a des.Resource). Simulated software
// charges processing time against it: protocol work, data copies, interrupt
// handling. Because cores are a contended resource, a host whose per-byte
// copy cost exceeds what its cores can stream becomes CPU-bound — which is
// exactly how the paper's NFS/TCP baseline saturates (§5.3) and why the
// Read-Read client burns 24% CPU at 8 threads while the zero-copy Read-Write
// client stays flat (§5.1).
package cpu

import (
	"time"

	"repro/internal/des"
)

// Model is the CPU complex of one simulated host.
type Model struct {
	sim   *des.Sim
	cores *des.Resource

	// Cost parameters. All may be zero for an idealized host.
	CopyNsPerByte    float64      // memcpy cost per byte, in nanoseconds (cache-cold)
	InterruptCost    des.Duration // per hardware interrupt (incl. context switch)
	SyscallCost      des.Duration // per user/kernel crossing
	MigrationCost    des.Duration // per cross-CPU completion handoff (cache refill + IPI)
	windowStart      des.Time
	interrupts       int64
	migrations       int64
	localWakes       int64
	busyAtWindowZero float64
}

// New creates a CPU model with the given core count.
func New(sim *des.Sim, host string, cores int) *Model {
	return &Model{sim: sim, cores: des.NewResource(sim, host+"/cpu", cores)}
}

// Cores returns the number of cores.
func (m *Model) Cores() int { return m.cores.Capacity() }

// Work occupies one core for d. It is the basic "run code for this long"
// operation; the caller blocks for at least d (longer under contention).
func (m *Model) Work(p *des.Proc, d des.Duration) {
	if d <= 0 {
		return
	}
	m.cores.Use(p, 1, d)
}

// Charge is the state of one WorkThen in flight, kept in storage its caller
// owns so that a charge allocates nothing.
type Charge = des.Hold

// WorkThen is Work for code running on the scheduler loop: it occupies one
// core for d with Resource.UseThen, so each step happens at the instant and
// in the place a process calling Work would take it, and keeps Work's
// short-cut: with d <= 0 it calls fn at once. c holds the chain's state until
// fn is called.
func (m *Model) WorkThen(c *Charge, d des.Duration, fn func(any), arg any) {
	if d <= 0 {
		fn(arg)
		return
	}
	m.cores.UseThen(c, d, fn, arg)
}

// Copy charges the CPU for moving n bytes through a core (one memcpy).
func (m *Model) Copy(p *des.Proc, n int) {
	m.Work(p, m.CopyCost(n))
}

// CopyCost returns the modelled duration of copying n bytes without
// charging it: what Copy charges, for a caller that charges it with WorkThen.
func (m *Model) CopyCost(n int) des.Duration {
	return time.Duration(float64(n) * m.CopyNsPerByte)
}

// Interrupt charges one hardware interrupt's worth of processing and counts
// it. Interrupt elimination is one of the Read-Write design's claimed wins,
// so the count is part of the experiment output.
func (m *Model) Interrupt(p *des.Proc) {
	m.interrupts++
	m.Work(p, m.InterruptCost)
}

// InterruptThen is Interrupt for code running on the scheduler loop: it
// counts the interrupt and charges it with WorkThen.
func (m *Model) InterruptThen(c *Charge, fn func(any), arg any) {
	m.interrupts++
	m.WorkThen(c, m.InterruptCost, fn, arg)
}

// Syscall charges one kernel crossing.
func (m *Model) Syscall(p *des.Proc) {
	m.Work(p, m.SyscallCost)
}

// PinFor maps an ordinal (shard id, worker id) onto a CPU number, the
// round-robin placement an IRQ/completion-vector table uses.
func (m *Model) PinFor(i int) int {
	if i < 0 {
		return 0
	}
	return i % m.Cores()
}

// MigrateThen charges the cost of handing work completed on complCPU to
// code running on runCPU, then calls fn(arg). When the two differ the waking
// thread finds its request state cache-cold on another core and pays
// MigrationCost (the xprtrdma "spread reply processing" effect: completion
// steering decides whether reply handling is a warm-cache local wake or a
// cross-CPU migration), charged with WorkThen. Same-CPU handoffs are free and
// counted separately.
func (m *Model) MigrateThen(c *Charge, complCPU, runCPU int, fn func(any), arg any) {
	if complCPU == runCPU {
		m.localWakes++
		fn(arg)
		return
	}
	m.migrations++
	m.WorkThen(c, m.MigrationCost, fn, arg)
}

// Migrations returns cross-CPU completion handoffs since the last
// ResetWindow.
func (m *Model) Migrations() int64 { return m.migrations }

// LocalWakes returns same-CPU completion handoffs since the last
// ResetWindow.
func (m *Model) LocalWakes() int64 { return m.localWakes }

// Interrupts returns the number of interrupts taken since the last
// ResetWindow.
func (m *Model) Interrupts() int64 { return m.interrupts }

// ResetWindow starts a new measurement window for Utilization and the
// interrupt counter.
func (m *Model) ResetWindow() {
	m.windowStart = m.sim.Now()
	m.busyAtWindowZero = m.cores.BusySeconds()
	m.interrupts = 0
	m.migrations = 0
	m.localWakes = 0
}

// Utilization returns mean CPU utilization (0..1 across all cores) over the
// current measurement window.
func (m *Model) Utilization() float64 {
	elapsed := des.Time(m.sim.Now() - m.windowStart).Seconds()
	if elapsed <= 0 {
		return 0
	}
	busy := m.cores.BusySeconds() - m.busyAtWindowZero
	return busy / (float64(m.Cores()) * elapsed)
}

// BusySeconds returns core-seconds consumed in the current window.
func (m *Model) BusySeconds() float64 {
	return m.cores.BusySeconds() - m.busyAtWindowZero
}

// TotalBusySeconds returns cumulative core-seconds consumed since the model
// was created, independent of ResetWindow. Telemetry samples this as a rate:
// d(busy-seconds)/dt divided by core count is windowed utilization, immune
// to the measurement-window resets that make BusySeconds jump backwards.
func (m *Model) TotalBusySeconds() float64 {
	return m.cores.BusySeconds()
}
