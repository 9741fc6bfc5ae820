package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
)

// Smoke tests run the sweeps at a heavy scale divisor: tiny workloads,
// same code paths, assert the paper's qualitative orderings.

const testScale = Scale(32)

func at(points []IOzonePoint, threads, rec int, d rpcrdma.Design, m memreg.Mode) *IOzonePoint {
	for i := range points {
		pt := &points[i]
		if pt.Threads == threads && pt.RecordSize == rec && pt.Design == d && pt.Mode == m {
			return pt
		}
	}
	return nil
}

func TestFigure5and6Orderings(t *testing.T) {
	r := RunFigure5and6(testScale)
	if len(r.Points) != 8*2*2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	rr := at(r.Points, 8, 128<<10, rpcrdma.ReadRead, memreg.Regular)
	rw := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.Regular)
	if rr == nil || rw == nil {
		t.Fatal("missing points")
	}
	if rw.Result.Read.MBps <= rr.Result.Read.MBps {
		t.Errorf("read-write (%.1f) should beat read-read (%.1f)",
			rw.Result.Read.MBps, rr.Result.Read.MBps)
	}
	if rr.Result.Read.ClientCPUPct <= rw.Result.Read.ClientCPUPct {
		t.Errorf("read-read client CPU (%.1f%%) should exceed read-write (%.1f%%)",
			rr.Result.Read.ClientCPUPct, rw.Result.Read.ClientCPUPct)
	}
	// Tables render without panicking and carry all 8 thread rows.
	if n := strings.Count(r.Read.String(), "\n"); n < 10 {
		t.Errorf("read table too short:\n%s", r.Read)
	}
}

func TestFigure7Orderings(t *testing.T) {
	r := RunFigure7(testScale)
	reg := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.Regular)
	fmr := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.FMR)
	cache := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.Cache)
	if reg == nil || fmr == nil || cache == nil {
		t.Fatal("missing points")
	}
	if !(cache.Result.Read.MBps > fmr.Result.Read.MBps && fmr.Result.Read.MBps > reg.Result.Read.MBps) {
		t.Errorf("ordering violated: cache %.1f, fmr %.1f, register %.1f",
			cache.Result.Read.MBps, fmr.Result.Read.MBps, reg.Result.Read.MBps)
	}
	if cache.Result.Read.MBps < 1.5*reg.Result.Read.MBps {
		t.Errorf("cache (%.1f) should be a large multiple of register (%.1f)",
			cache.Result.Read.MBps, reg.Result.Read.MBps)
	}
}

func TestFigure9Orderings(t *testing.T) {
	r := RunFigure9(testScale)
	reg := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.Regular)
	fmr := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.FMR)
	phys := at(r.Points, 8, 128<<10, rpcrdma.ReadWrite, memreg.AllPhysical)
	if reg == nil || fmr == nil || phys == nil {
		t.Fatal("missing points")
	}
	if !(phys.Result.Read.MBps > fmr.Result.Read.MBps && fmr.Result.Read.MBps > reg.Result.Read.MBps) {
		t.Errorf("read ordering violated: phys %.1f, fmr %.1f, register %.1f",
			phys.Result.Read.MBps, fmr.Result.Read.MBps, reg.Result.Read.MBps)
	}
	if phys.Result.Write.MBps >= fmr.Result.Write.MBps {
		t.Errorf("all-physical write (%.1f) should degrade below FMR (%.1f)",
			phys.Result.Write.MBps, fmr.Result.Write.MBps)
	}
}

func TestFigure8CacheWins(t *testing.T) {
	r := RunFigure8(Scale(64))
	for _, mode := range []memreg.Mode{memreg.Regular, memreg.FMR, memreg.Cache} {
		if len(r.Series[mode]) == 0 {
			t.Fatalf("no series for %v", mode)
		}
	}
	last := func(m memreg.Mode) float64 {
		pts := r.Series[m]
		return pts[len(pts)-1].Result.OpsPerSec
	}
	if last(memreg.Cache) <= last(memreg.Regular) {
		t.Errorf("cache ops/s (%.0f) should beat register (%.0f)",
			last(memreg.Cache), last(memreg.Regular))
	}
}

func TestFigure10KneeAndOrdering(t *testing.T) {
	// Scale 32: 32 MiB files, ~96 MiB cache (4 GB server) -> knee at 3.
	r := RunFigure10(Scale(32), 4<<30, 5)
	rdma := r.Series[core.TransportRDMA]
	if len(rdma) != 5 {
		t.Fatalf("rdma points = %d", len(rdma))
	}
	peak, tail := 0.0, rdma[len(rdma)-1].Result.AggregateReadMBps
	for _, pt := range rdma {
		if pt.Result.AggregateReadMBps > peak {
			peak = pt.Result.AggregateReadMBps
		}
	}
	if tail >= peak/2 {
		t.Errorf("no cache-overflow collapse: peak %.1f, tail %.1f", peak, tail)
	}
	ipoibPeak := 0.0
	for _, pt := range r.Series[core.TransportIPoIB] {
		if v := pt.Result.AggregateReadMBps; v > ipoibPeak {
			ipoibPeak = v
		}
	}
	gigePeak := 0.0
	for _, pt := range r.Series[core.TransportGigE] {
		if v := pt.Result.AggregateReadMBps; v > gigePeak {
			gigePeak = v
		}
	}
	if !(peak > ipoibPeak && ipoibPeak > gigePeak) {
		t.Errorf("transport ordering violated: rdma %.1f, ipoib %.1f, gige %.1f",
			peak, ipoibPeak, gigePeak)
	}
}

// TestFigure10bRDMASustains is Fig. 10(b)'s claim: with the 8 GB server the
// working set of seven clients still fits the cache, so RDMA never collapses
// and stays above anything IPoIB reaches.
func TestFigure10bRDMASustains(t *testing.T) {
	r := RunFigure10(Scale(32), 8<<30, 7)
	rdmaMin := math.Inf(1)
	for _, pt := range r.Series[core.TransportRDMA] {
		if pt.Clients >= 2 {
			rdmaMin = min(rdmaMin, pt.Result.AggregateReadMBps)
		}
	}
	ipoibPeak := 0.0
	for _, pt := range r.Series[core.TransportIPoIB] {
		ipoibPeak = max(ipoibPeak, pt.Result.AggregateReadMBps)
	}
	if ipoibPeak <= 0 || rdmaMin < ipoibPeak {
		t.Errorf("RDMA sustained %.1f MB/s from 2 to 7 clients, IPoIB peaks at %.1f", rdmaMin, ipoibPeak)
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"Receive buffer exposed", "Steering tag", "Rendezvous"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

// TestAblationsRun runs each ablation sweep end to end on a tiny workload. A
// point that cannot run panics (runIOzone), so what is left to check is that
// every sweep value produced a row and no row came back all zeros.
func TestAblationsRun(t *testing.T) {
	ablations := []struct {
		name string
		run  func(Scale) *stats.Table
	}{
		{"ORD", AblationORD},
		{"PhysicalContiguity", AblationPhysicalContiguity},
		{"InlineThreshold", AblationInlineThreshold},
		{"InterruptCost", AblationInterruptCost},
		{"CacheBound", AblationCacheBound},
		{"ClientCache", AblationClientCache},
	}
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			table := a.run(Scale(64))
			lines := strings.Split(strings.TrimSpace(table.String()), "\n")
			rows := lines[3:] // title, header, separator
			if len(rows) < 4 {
				t.Fatalf("%d rows:\n%s", len(rows), table)
			}
			for _, row := range rows {
				cells := strings.Fields(row)
				if len(cells) < 2 {
					t.Errorf("empty row %q", row)
					continue
				}
				zero := true
				for _, c := range cells[1:] { // cells[0] is the swept value
					if v, err := strconv.ParseFloat(c, 64); err != nil || v != 0 {
						zero = false
					}
				}
				if zero {
					t.Errorf("all-zero row %q:\n%s", row, table)
				}
			}
		})
	}
}
