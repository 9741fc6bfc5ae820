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
// page-cache knee.
type DiskArray struct {
	sim   *des.Sim
	cfg   DiskArrayConfig
	disks []*des.Resource
	// lastPos tracks the last accessed block per disk for sequentiality.
	lastPos []int64

	BytesRead    int64
	BytesWritten int64
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

// xfer performs one striped transfer of n bytes at logical offset off,
// blocking until the slowest stripe completes.
func (a *DiskArray) xfer(p *des.Proc, off int64, n int) {
	if n <= 0 {
		return
	}
	stripe := int64(a.cfg.StripeSize)
	var events []*des.Event
	pos := off
	remaining := n
	for remaining > 0 {
		unit := int(stripe - pos%stripe)
		if unit > remaining {
			unit = remaining
		}
		disk := int((pos / stripe) % int64(a.cfg.Disks))
		blockPos := pos
		unitLen := unit
		ev := des.NewEvent(a.sim)
		events = append(events, ev)
		a.sim.Spawn("stripe-io", func(sp *des.Proc) {
			r := a.disks[disk]
			r.Acquire(sp, 1)
			cost := des.Duration(float64(unitLen) / a.cfg.DiskBandwidth * 1e9)
			// Sequential continuation skips the seek. A RAID-0 member sees
			// its stripe units at a constant forward stride, which the drive
			// (and its track cache) services without repositioning, so short
			// forward skips count as sequential; only backward motion or a
			// long jump pays the positioning cost.
			const maxForwardSkip = 8 << 20
			if blockPos < a.lastPos[disk] || blockPos-a.lastPos[disk] > maxForwardSkip {
				cost += a.cfg.SeekTime
			}
			sp.Sleep(cost)
			a.lastPos[disk] = blockPos + int64(unitLen)
			r.Release(1)
			ev.Fire(nil)
		})
		pos += int64(unit)
		remaining -= unit
	}
	des.WaitAll(p, events...)
}

// Read blocks for a striped read of n bytes at off.
func (a *DiskArray) Read(p *des.Proc, off int64, n int) {
	a.BytesRead += int64(n)
	a.xfer(p, off, n)
}

// Write blocks for a striped write of n bytes at off.
func (a *DiskArray) Write(p *des.Proc, off int64, n int) {
	a.BytesWritten += int64(n)
	a.xfer(p, off, n)
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
