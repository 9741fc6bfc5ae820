// Command benchmark is the repository's performance record: six workloads
// run against core.NewCluster through the client API, reporting simulated
// (virtual-time) and host (Go process) end-to-end metrics, a per-layer table
// from a traced run, layer drivers and a CPU profile, and checking outputs.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -seed 1                       # everything, as a table
//	go run ./benchmark -workload null_echo -trace 0  # one end-to-end run
//	go run ./benchmark -workload null_echo -trace 1  # its per-layer pass
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the single list of workload and metric names,
// units, directions and bounds. The program reads units from it and refuses
// to report a set of metrics that differs from the listed one.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// result is the JSON object a single run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print a JSON result; empty runs all of them and prints a table")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs (op mix, offsets, think times, Poisson arrivals) and of core.Config.Seed")
		seconds  = flag.Float64("seconds", 0, "host seconds each run measures for (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (traced run, CPU profile, layer drivers)")
		specPath = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		os.Exit(runAll(sp, *specPath, *seed, *seconds))
	}
	var w *workload
	for _, c := range allWorkloads() {
		if c.name == *name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}

	res := measure(w, options{seed: *seed, size: fullSize, budget: budget}, *traced != 0, sp)
	fmt.Fprintf(os.Stderr, "%s seed %d: %s %s/%s GOMAXPROCS=%d nproc=%d GOGC=%q\n",
		w.name, *seed, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GOGC"))
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs one pass over a workload — end to end, or per layer — and
// checks the result against the listed metrics. The per-layer pass runs
// between two calibration readings and reports their drift; an end-to-end
// run is bracketed by its caller (runAll), which can repeat it.
func measure(w *workload, opt options, layers bool, sp *spec) *result {
	if !layers {
		values, out := endToEnd(w, opt)
		return finish(values, sp.EndToEnd, out)
	}
	div := opt.size.div
	before := calibrate(div)
	values, outs := perLayer(w, opt)
	values["harness.calib_drift_pct"] = drift(before, div)
	return finish(values, sp.PerLayer, outs...)
}

// drift is how much slower (in percent) the calibration loop runs now than
// it did at before.
func drift(before time.Duration, div int) float64 {
	return (float64(calibrate(div))/float64(before) - 1) * 100
}

// finish checks that exactly the listed metrics were measured and attaches
// their units. attempted and failed describe the last outcome, the one that
// measured.
func finish(values map[string]float64, listed []metricSpec, outs ...*outcome) *result {
	res := &result{Metrics: map[string]metricValue{}}
	for _, o := range outs {
		res.problems = append(res.problems, o.problems...)
	}
	last := outs[len(outs)-1]
	res.Attempted, res.Failed = last.attempted, last.failed
	if res.Attempted < 1 {
		res.Attempted = 1
		res.problems = append(res.problems, "no op was attempted")
	}
	for _, ms := range listed {
		v, ok := values[ms.Name]
		if !ok {
			res.problems = append(res.problems, fmt.Sprintf("metric %s is listed in BENCHMARK.json but was not measured", ms.Name))
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A run that failed before it measured anything divides by zero.
			res.problems = append(res.problems, fmt.Sprintf("metric %s has no value", ms.Name))
			v = 0
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
		delete(values, ms.Name)
	}
	for name := range values {
		res.problems = append(res.problems, fmt.Sprintf("metric %s was measured but is not listed in BENCHMARK.json", name))
	}
	sort.Strings(res.problems)
	res.Correct = len(res.problems) == 0
	return res
}

// endToEnd measures a workload with tracing off.
func endToEnd(w *workload, opt options) (map[string]float64, *outcome) {
	out := execute(w, opt)
	rec := &out.rec
	sort.Slice(rec.lat, func(i, j int) bool { return rec.lat[i] < rec.lat[j] })
	ops := float64(rec.ops)
	values := map[string]float64{
		"setup_s":                  out.setup.Seconds(),
		"host_wall_us_per_rpc":     medianOf(out.rounds, func(c roundCost) float64 { return c.wallUS }),
		"host_cpu_us_per_rpc":      medianOf(out.rounds, func(c roundCost) float64 { return c.cpuUS }),
		"host_allocs_per_rpc":      out.allocs,
		"host_bytes_per_rpc":       out.bytes,
		"host_peak_rss_mb":         out.peakRSSMB,
		"sim_ops_per_s":            float64(rec.tputOps) / rec.tputTime.Seconds(),
		"sim_p50_us":               quantile(rec.lat, 0.50) / 1e3,
		"sim_p99_us":               quantile(rec.lat, 0.99) / 1e3,
		"sim_server_cpu_us_per_op": (out.close.serverCPU - out.open.serverCPU) * 1e6 / ops,
		"sim_client_cpu_us_per_op": (out.close.clientCPU - out.open.clientCPU) * 1e6 / ops,
	}
	if opt.size == fullSize && len(rec.lat) < 1000 {
		out.problemf("p99 rests on %d samples, want at least 1000", len(rec.lat))
	}
	fmt.Fprintf(os.Stderr, "%s: %d rounds (%d in the sim window: %.3f s virtual, %d ops, %d RPCs, %d latency samples), set-up %.2f s\n",
		w.name, len(out.rounds), w.simRounds, (out.close.now - out.open.now).Seconds(), rec.ops,
		out.close.requests-out.open.requests, len(rec.lat), out.setup.Seconds())
	return values, out
}

// perLayer measures a workload's per-layer metrics in three passes, none of
// which feeds an end-to-end number: (T) a traced execution whose sim window
// is 1/16 of the rounds, (P) a CPU-profiled execution, (D) the layer
// drivers.
func perLayer(w *workload, opt options) (map[string]float64, []*outcome) {
	topt := opt
	topt.budget, topt.traced = opt.budget/5, true
	traced := execute(w, topt)
	values := tracedMetrics(traced)
	traced.events = nil
	var on, off []roundCost
	for _, c := range traced.rounds[w.tracedRounds():] {
		if c.traced {
			on = append(on, c)
		} else {
			off = append(off, c)
		}
	}
	values["trace.overhead_pct"] = 0
	if len(on) > 0 && len(off) > 0 {
		wall := func(c roundCost) float64 { return c.wallUS }
		values["trace.overhead_pct"] = (medianOf(on, wall)/medianOf(off, wall) - 1) * 100
	}

	var prof bytes.Buffer
	popt := opt
	popt.budget = opt.budget * 2 / 5
	popt.onWindow = func() {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err) // only fails if a profile is already running
		}
	}
	profiled := execute(w, popt)
	pprof.StopCPUProfile()
	for i, t := range traced.roundEnds {
		if i < len(profiled.roundEnds) && profiled.roundEnds[i] != t {
			traced.problemf("tracing changed the simulation: round %d ends at %v traced, %v untraced", i, t, profiled.roundEnds[i])
		}
	}
	byPkg, err := flatByPackage(prof.Bytes())
	if err != nil {
		profiled.problemf("%v", err)
	}
	for k, v := range hostShares(byPkg) {
		values[k] = v
	}
	for k, v := range layerDrivers(opt.size.div) {
		values[k] = v
	}
	return values, []*outcome{profiled, traced}
}

// runAll runs every workload's end-to-end run and per-layer pass, each in a
// child process of its own, one at a time, and prints every metric by name
// and unit. A calibration loop before and after each end-to-end child
// detects a sandbox that changed speed: such a run is marked noisy and
// repeated once, and both records are printed.
func runAll(sp *spec, specPath string, seed uint64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("# %s %s/%s GOMAXPROCS=%d nproc=%d GOGC=%q seed=%d seconds=%g\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GOGC"), seed, seconds)
	child := func(workload string, traced int) (*result, error) {
		cmd := exec.Command(self, "-spec", specPath, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced))
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, fmt.Errorf("%s -trace %d: %v (%v)", workload, traced, err, runErr)
		}
		return &res, nil
	}
	exit := 0
	show := func(workload, note string, res *result, listed []metricSpec) {
		if !res.Correct {
			exit = 1
		}
		fmt.Printf("\n## %s%s: correct=%v attempted=%d failed=%d\n", workload, note, res.Correct, res.Attempted, res.Failed)
		for _, ms := range listed {
			fmt.Printf("%-36s %16.4f %s\n", ms.Name, res.Metrics[ms.Name].Value, ms.Unit)
		}
	}
	for _, we := range sp.Workloads {
		for attempt := 0; attempt < 2; attempt++ {
			before := calibrate(1)
			res, err := child(we.Name, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			d := drift(before, 1)
			note := fmt.Sprintf(" (end to end, calibration drift %+.1f%%)", d)
			noisy := d > 5 || d < -5
			if noisy {
				note = fmt.Sprintf(" (end to end, NOISY: calibration drift %+.1f%%)", d)
			}
			show(we.Name, note, res, sp.EndToEnd)
			if !noisy {
				break
			}
		}
		res, err := child(we.Name, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		show(we.Name, " (per layer)", res, sp.PerLayer)
	}
	return exit
}
