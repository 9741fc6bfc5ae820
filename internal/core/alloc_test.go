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
// allocations: one client, one call outstanding, an NFS NULL (two Sends) and
// an 8 KiB direct READ per design, tracing off. The benchmark reports the
// same count per workload (host_allocs_per_rpc); this fails in under a second
// when a change to the message path adds an allocation, instead of ten
// minutes later. The pins are the measured counts plus one.
func TestAllocsPerRPC(t *testing.T) {
	pins := []struct {
		design     rpcrdma.Design
		null, read float64
	}{
		{rpcrdma.ReadWrite, 21, 49},  // measured 20.00 and 48.07
		{rpcrdma.ReadRead, 36, 65},   // 35.24 and 64.34
		{rpcrdma.ReplyFetch, 49, 78}, // 48.01 and 77.06
	}
	const calls = 500
	for _, pin := range pins {
		design := pin.design
		cluster := NewCluster(Config{
			Profile:   profiles.LinuxDDR(),
			Transport: TransportRDMA,
			Design:    design,
			RegMode:   memreg.Regular,
		})
		cl := cluster.Clients[0]
		var null, read float64
		cluster.Start("pin", func(p *des.Proc) {
			f, err := cl.Create(p, "pin.bin")
			if err != nil {
				t.Errorf("%v: create: %v", design, err)
				return
			}
			buf := cl.NewBuffer(8 << 10)
			if _, err := f.WriteAt(p, buf, 0, 0, 8<<10, true); err != nil {
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
				_, _, err := f.ReadAt(p, buf, 0, 0, 8<<10, true)
				return err
			})
		})
		cluster.Run()
		t.Logf("%v: %.2f allocs per NULL, %.2f per 8 KiB READ", design, null, read)
		if null > pin.null || read > pin.read {
			t.Errorf("%v: %.2f allocs per NULL (pin %.0f), %.2f per 8 KiB READ (pin %.0f)", design, null, pin.null, read, pin.read)
		}
	}
}
