package vfs

import (
	"time"

	"repro/internal/des"
)

// DiskArrayConfig sizes a RAID-0 stripe set, defaulting to the paper's
// testbed: eight HighPoint SCSI disks, each capable of 30 MB/s, striped.
type DiskArrayConfig struct {
	Disks         int
	StripeSize    int          // bytes per stripe unit
	DiskBandwidth float64      // bytes/second streaming per disk
	SeekTime      des.Duration // positioning cost per non-sequential access
}

func (c *DiskArrayConfig) defaults() {
	if c.Disks <= 0 {
		c.Disks = 8
	}
	if c.StripeSize <= 0 {
		c.StripeSize = 64 << 10
	}
	if c.DiskBandwidth <= 0 {
		c.DiskBandwidth = 30e6
	}
	if c.SeekTime <= 0 {
		c.SeekTime = 4 * time.Millisecond
	}
}

// DiskArray models a RAID-0 stripe set. Each member disk is a des.Resource
// so concurrent requests queue per disk, and a large request is served by
// its stripes in parallel — aggregate streaming bandwidth approaches
// Disks × DiskBandwidth, the ceiling that bounds Fig. 10(a) beyond the
// page-cache knee. A transfer is a chain: each stripe unit waits for its
// disk and then for its service time, and the transfer goes on once every
// unit is done.
type DiskArray struct {
	sim   *des.Sim
	cfg   DiskArrayConfig
	disks []*des.Resource
	// lastPos tracks the last accessed block per disk for sequentiality.
	lastPos []int64
	units   des.FreeList[stripeUnit]

	BytesRead    int64
	BytesWritten int64
}

// stripeUnit is one stripe unit of a transfer in flight, in the transfer's
// list of units in offset order.
type stripeUnit struct {
	a    *DiskArray
	op   *Op
	disk int
	pos  int64
	n    int
	done bool
	next *stripeUnit
}

// NewDiskArray builds the array.
func NewDiskArray(sim *des.Sim, name string, cfg DiskArrayConfig) *DiskArray {
	cfg.defaults()
	a := &DiskArray{sim: sim, cfg: cfg, lastPos: make([]int64, cfg.Disks)}
	for i := 0; i < cfg.Disks; i++ {
		a.disks = append(a.disks, des.NewResource(sim, name+"/disk", 1))
	}
	return a
}

// Config returns the array configuration.
func (a *DiskArray) Config() DiskArrayConfig { return a.cfg }

// xferThen performs one striped transfer of n bytes at logical offset off,
// then calls next(op) once the slowest stripe unit completes. Each unit
// starts as an event at this instant, takes its disk, holds it for its
// service time and releases it; the transfer goes on where a process
// waiting for the units one after another, in offset order, would resume.
func (a *DiskArray) xferThen(op *Op, off int64, n int, next func(*Op)) {
	if n <= 0 {
		next(op)
		return
	}
	op.xferred = next
	stripe := int64(a.cfg.StripeSize)
	var last *stripeUnit
	for pos, remaining := off, n; remaining > 0; {
		u := a.units.Get()
		u.a, u.op, u.pos = a, op, pos
		u.n = int(min(stripe-pos%stripe, int64(remaining)))
		u.disk = int((pos / stripe) % int64(a.cfg.Disks))
		if last == nil {
			op.wait = u
		} else {
			last.next = u
		}
		last = u
		a.sim.AtArg(a.sim.Now(), unitStart, u)
		pos += int64(u.n)
		remaining -= u.n
	}
}

func unitStart(x any) {
	u := x.(*stripeUnit)
	u.a.disks[u.disk].AcquireThen(1, unitHeld, u)
}

func unitHeld(x any) {
	u := x.(*stripeUnit)
	a := u.a
	cost := des.Duration(float64(u.n) / a.cfg.DiskBandwidth * 1e9)
	// Sequential continuation skips the seek. A RAID-0 member sees its
	// stripe units at a constant forward stride, which the drive (and its
	// track cache) services without repositioning, so short forward skips
	// count as sequential; only backward motion or a long jump pays the
	// positioning cost.
	const maxForwardSkip = 8 << 20
	if last := a.lastPos[u.disk]; u.pos < last || u.pos-last > maxForwardSkip {
		cost += a.cfg.SeekTime
	}
	a.sim.AtArg(a.sim.Now()+des.Time(cost), unitDone, u)
}

func unitDone(x any) {
	u := x.(*stripeUnit)
	a := u.a
	a.lastPos[u.disk] = u.pos + int64(u.n)
	a.disks[u.disk].Release(1)
	u.done = true
	if u.op.wait == u {
		a.sim.AtArg(a.sim.Now(), xferWoken, u.op)
	}
}

// xferWoken passes the units that are done, in offset order, and waits for
// the first that is not, or ends the transfer.
func xferWoken(x any) {
	op := x.(*Op)
	u := op.wait
	a := u.a
	for u != nil && u.done {
		next := u.next
		*u = stripeUnit{}
		a.units.Put(u)
		u = next
	}
	if op.wait = u; u == nil {
		op.xferred(op)
	}
}

// readThen is a striped read of n bytes at off, then next(op).
func (a *DiskArray) readThen(op *Op, off int64, n int, next func(*Op)) {
	a.BytesRead += int64(n)
	a.xferThen(op, off, n, next)
}

// writeThen is a striped write of n bytes at off, then next(op).
func (a *DiskArray) writeThen(op *Op, off int64, n int, next func(*Op)) {
	a.BytesWritten += int64(n)
	a.xferThen(op, off, n, next)
}

// BusySeconds returns cumulative disk-seconds consumed across the array.
func (a *DiskArray) BusySeconds() float64 {
	var b float64
	for _, d := range a.disks {
		b += d.BusySeconds()
	}
	return b
}

// Disks returns the member count.
func (a *DiskArray) Disks() int { return len(a.disks) }
