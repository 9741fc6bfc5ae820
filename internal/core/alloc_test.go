package core

import (
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

// TestAllocsPerRPC pins what one simulated RPC costs the host in heap
// allocations: one client, one call outstanding, tracing off; per design an
// NFS NULL (two Sends), an 8 KiB direct READ under dynamic registration, and
// a 64 KiB buffered READ under all-physical registration (the fan-in
// workloads' call: multi-segment chunk lists, client staging). The benchmark
// reports the same count per workload (host_allocs_per_rpc); this fails in
// under a second when a change to the message path adds an allocation,
// instead of ten minutes later. The pins are the measured counts plus one.
func TestAllocsPerRPC(t *testing.T) {
	pins := []struct {
		design               rpcrdma.Design
		null, read, physRead float64
	}{
		{rpcrdma.ReadWrite, 21, 41, 45},  // measured 20.00, 40.02 and 44.06
		{rpcrdma.ReadRead, 32, 53, 59},   // 31.24, 52.25 and 58.57
		{rpcrdma.ReplyFetch, 48, 69, 71}, // 47.00, 68.00 and 70.14
	}
	for _, pin := range pins {
		null, read := allocsPerRPC(t, pin.design, memreg.Regular, 8<<10, true)
		_, physRead := allocsPerRPC(t, pin.design, memreg.AllPhysical, 64<<10, false)
		t.Logf("%v: %.2f allocs per NULL, %.2f per 8 KiB direct READ, %.2f per all-physical 64 KiB buffered READ",
			pin.design, null, read, physRead)
		if null > pin.null || read > pin.read || physRead > pin.physRead {
			t.Errorf("%v: %.2f allocs per NULL (pin %.0f), %.2f per 8 KiB READ (pin %.0f), %.2f per all-physical 64 KiB READ (pin %.0f)",
				pin.design, null, pin.null, read, pin.read, physRead, pin.physRead)
		}
	}
}

// allocsPerRPC measures heap allocations per NULL and per READ of size bytes
// on a one-client cluster.
func allocsPerRPC(t *testing.T, design rpcrdma.Design, mode memreg.Mode, size int, direct bool) (null, read float64) {
	const calls = 500
	cluster := NewCluster(Config{
		Profile:   profiles.LinuxDDR(),
		Transport: TransportRDMA,
		Design:    design,
		RegMode:   mode,
	})
	cl := cluster.Clients[0]
	cluster.Start("pin", func(p *des.Proc) {
		f, err := cl.Create(p, "pin.bin")
		if err != nil {
			t.Errorf("%v: create: %v", design, err)
			return
		}
		buf := cl.NewBuffer(size)
		if _, err := f.WriteAt(p, buf, 0, 0, size, true); err != nil {
			t.Errorf("%v: write: %v", design, err)
			return
		}
		perCall := func(call func() error) float64 {
			var before, after runtime.MemStats
			for i := 0; i < 2*calls; i++ {
				if i == calls { // the first half fills rings, free lists and caches
					runtime.ReadMemStats(&before)
				}
				if err := call(); err != nil {
					t.Errorf("%v: %v", design, err)
					return 0
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / calls
		}
		null = perCall(func() error { return cl.NFS.Null(p) })
		read = perCall(func() error {
			_, _, err := f.ReadAt(p, buf, 0, 0, size, direct)
			return err
		})
	})
	cluster.Run()
	return null, read
}
