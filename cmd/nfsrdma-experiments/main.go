// Command nfsrdma-experiments regenerates every table and figure of the
// paper's evaluation section and prints them as text or markdown tables.
//
// Usage:
//
//	nfsrdma-experiments [-scale N] [-markdown] [-only fig4,fig5,fig7,...]
//	                    [-workers N] [-trace TRACE.json]
//
// -scale divides workload sizes (1 = the paper's sizes; the default 4 keeps
// a full run to a few minutes of wall-clock time). Results are simulated
// time, so scale changes convergence detail, not the steady-state shape.
//
// Sweep points run as concurrent simulations, one worker per core by
// default; -workers pins the count (1 forces the sequential reference
// path). Results are deterministic and identical at any worker count.
//
// -trace writes the fig4 run's structured event stream as a Chrome
// trace-event JSON file (load it in chrome://tracing or https://ui.perfetto.dev)
// and prints a per-layer span summary. It implies fig4 when -only does not
// already select it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	scale := flag.Int("scale", 4, "workload scale divisor (1 = paper sizes)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown tables")
	known := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "ablations", "recovery", "capacity", "muxcap", "chaos", "adversary"}
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(known, ","))
	workers := flag.Int("workers", 0, "concurrent simulations per sweep (0 = one per core, 1 = sequential)")
	traceOut := flag.String("trace", "", "write the fig4 run's Chrome trace-event JSON to this file (implies fig4)")
	telemetryPrefix := flag.String("telemetry", "", "per-point telemetry for capacity/muxcap: write <prefix>-<clients>-<mode>-<design>-<load>.csv series and print each point's dashboard")
	telemetryIval := flag.Duration("telemetry-interval", 100*time.Microsecond, "virtual-time sampling period for -telemetry")
	flag.Parse()

	experiments.SetParallelism(*workers)

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if k == "figure4" { // long-form alias
				k = "fig4"
			}
			want[k] = true
		}
	}
	if *traceOut != "" && len(want) > 0 {
		want["fig4"] = true
	}
	for k := range want {
		if !slices.Contains(known, k) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", k, strings.Join(known, ", "))
			os.Exit(2)
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	emit := func(t *stats.Table) {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t)
		}
	}
	s := experiments.Scale(*scale)

	if sel("table1") {
		emit(experiments.Table1())
	}
	if sel("fig4") {
		r := experiments.RunFigure4(s)
		emit(r.PerProc)
		emit(r.Transport)
		emit(r.Counters)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			events := r.Tracer.Events()
			if err := trace.WriteChrome(f, events); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d events, %d dropped)\n",
				*traceOut, len(events), r.Tracer.Dropped())
			fmt.Println(trace.Summary(events))
		}
		// Three-way anatomy: the same traced run under the other two
		// transfer designs, so the exchange structures (server Send
		// vs client pull vs doorbell fetch) line up side by side.
		for _, d := range []rpcrdma.Design{rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
			rd := experiments.RunFigure4Design(s, d)
			emit(rd.PerProc)
			emit(rd.Transport)
			emit(rd.Counters)
		}
	}
	if sel("fig5") || sel("fig6") {
		r := experiments.RunFigure5and6(s)
		if sel("fig5") {
			emit(r.Read)
		}
		if sel("fig6") {
			emit(r.Write)
		}
		emit(r.CPU)
	}
	if sel("fig7") {
		r := experiments.RunFigure7(s)
		emit(r.Read)
		emit(r.Write)
		emit(r.CPU)
	}
	if sel("fig8") {
		emit(experiments.RunFigure8(s).Table)
	}
	if sel("fig9") {
		r := experiments.RunFigure9(s)
		emit(r.Read)
		emit(r.Write)
	}
	if sel("fig10a") {
		emit(experiments.RunFigure10(s, 4<<30, 8).Table)
	}
	if sel("fig10b") {
		emit(experiments.RunFigure10(s, 8<<30, 8).Table)
	}
	if sel("recovery") {
		emit(experiments.RunRecovery(s).Table)
	}
	if sel("chaos") {
		emit(experiments.RunChaos(s).Table)
	}
	if sel("adversary") {
		emit(experiments.RunAdversary(s).Table)
	}
	telIval := des.Duration(0)
	if *telemetryPrefix != "" {
		telIval = des.Duration(*telemetryIval)
	}
	if sel("capacity") {
		r := experiments.RunCapacityWith(s, experiments.CapacityOptions{TelemetryInterval: telIval})
		emit(r.Curves)
		emit(r.Knee)
		for _, pt := range r.Points {
			name := fmt.Sprintf("%s-cap-%d-%s-%.0f", *telemetryPrefix,
				pt.Clients, pt.Design, pt.OfferedMBps)
			emitTelemetry(*telemetryPrefix, name, pt.Telemetry)
		}
	}
	if sel("muxcap") {
		r := experiments.RunMuxCapacityWith(s, experiments.CapacityOptions{TelemetryInterval: telIval})
		emit(r.Curves)
		emit(r.Memory)
		for _, pt := range r.Points {
			mode := "perconn"
			if pt.Multiplex {
				mode = "mux"
			}
			name := fmt.Sprintf("%s-mux-%d-%s-%s-%.0f", *telemetryPrefix,
				pt.Clients, mode, pt.Design, pt.OfferedMBps)
			emitTelemetry(*telemetryPrefix, name, pt.Telemetry)
		}
	}
	if want["ablations"] {
		emit(experiments.AblationORD(s))
		emit(experiments.AblationPhysicalContiguity(s))
		emit(experiments.AblationInlineThreshold(s))
		emit(experiments.AblationInterruptCost(s))
		emit(experiments.AblationCacheBound(s))
		emit(experiments.AblationClientCache(s))
	}
}

// emitTelemetry writes one sweep point's series to <name>.csv and prints
// its dashboard; a no-op when telemetry was not requested for the run.
func emitTelemetry(prefix, name string, r *telemetry.Report) {
	if prefix == "" || r == nil {
		return
	}
	path := name + ".csv"
	if err := r.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s", path, r.Dashboard())
}
