package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
)

// telemetryTickCost builds an idle multiplexed cluster (the benchmark's
// fanin_mux_telemetry shape: shared QPs, affinity, Reply-Fetch), lets the
// sampler run ticks ticks in each of rounds rounds, and returns the cheapest
// round's host nanoseconds per tick and the allocations per tick over all of
// them. A tick here is the sampler's timer event plus one poll of every
// cluster probe — the whole recurring cost of leaving telemetry on.
func telemetryTickCost(clients, rounds, ticks int) (nsPerTick, allocsPerTick float64) {
	c := NewCluster(Config{
		Profile: profiles.LinuxDDR(), Transport: TransportRDMA, Design: rpcrdma.ReplyFetch,
		RegMode: memreg.AllPhysical, Clients: clients, Multiplex: true, ServerShards: 8, Affinity: true,
	})
	const interval = 100 * time.Microsecond
	tel := c.EnableTelemetry(telemetry.Options{Interval: interval})
	best := time.Duration(math.MaxInt64)
	var mallocs uint64
	c.Start("ticks", func(p *des.Proc) {
		tel.Start(p)
		p.Sleep(telemetry.DefaultCapacity * interval) // wrap the rings once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			p.Sleep(des.Duration(ticks) * interval)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		tel.Stop()
	})
	c.Run()
	return float64(best) / float64(ticks), float64(mallocs) / float64(rounds*ticks)
}

// BenchmarkClusterTelemetryTick measures one telemetry tick on a built
// cluster at two client counts. Every probe is a cell read, so the two must
// cost the same; when nine of the probes walked the clients the 2048-client
// tick cost over a hundred times the 8-client one.
func BenchmarkClusterTelemetryTick(b *testing.B) {
	for _, bc := range []struct {
		name    string
		clients int
	}{{"clients=8", 8}, {"clients=2048", 2048}} {
		b.Run(bc.name, func(b *testing.B) {
			ns, allocs := telemetryTickCost(bc.clients, 1, b.N)
			b.ReportMetric(ns, "ns/tick")
			b.ReportMetric(allocs, "allocs/tick")
		})
	}
}

// TestClusterTelemetryTickIsOSeries pins the two properties a tick must
// keep as series are added: it allocates nothing, and it costs the same at
// 2048 clients as at 8.
func TestClusterTelemetryTickIsOSeries(t *testing.T) {
	small, smallAllocs := telemetryTickCost(8, 5, 2000)
	large, largeAllocs := telemetryTickCost(2048, 5, 2000)
	t.Logf("tick: %.0f ns at 8 clients, %.0f ns at 2048", small, large)
	if smallAllocs != 0 || largeAllocs != 0 {
		t.Errorf("allocations per tick: %v at 8 clients, %v at 2048, want 0", smallAllocs, largeAllocs)
	}
	if large > 2*small {
		t.Errorf("tick costs %.0f ns at 2048 clients and %.0f ns at 8: a probe scales with the client count", large, small)
	}
}
