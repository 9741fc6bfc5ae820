// Package telemetry is the simulator's virtual-time time-series layer: a
// sampling engine that polls registered probes — gauges and cumulative
// counters from every layer of the stack — on a des timer and records them
// into fixed-capacity ring-buffer series. Where the trace layer answers
// "what happened to this one request", telemetry answers "what was the
// system doing between t=0 and t=end": credit starvation onset, SRQ pool
// drain, the saturation knee forming, chaos fault windows and the recovery
// after them.
//
// Design constraints mirror internal/trace, in order:
//
//  1. Disabled telemetry must cost a nil check. All methods are safe on a
//     nil receiver — a nil *Engine IS the disabled state — so workloads
//     call Observe/Start/Stop unconditionally.
//  2. The steady-state sample path must not allocate. Probes are closures
//     registered up front (allocation at registration time is fine); one
//     sample tick iterates a preallocated slice and writes into
//     preallocated rings. BenchmarkTelemetrySample pins allocs/op at zero.
//  3. Sampling must not perturb the simulation. Probes only read state;
//     the sampler's timer events interleave with workload events but never
//     reorder them (the kernel's heap is keyed by time then sequence), so
//     same-seed runs stay byte-identical with telemetry on or off.
//
// On top of the series sit a run-report builder (CSV/JSON export, an
// aligned text dashboard of sparkline windows — report.go) and detectors
// that walk the series to emit findings (saturation-knee onset, starvation
// windows, SLO burn, chaos fault annotation — detect.go).
package telemetry

import (
	"time"

	"repro/internal/des"
	"repro/internal/stats"
)

// Kind distinguishes how a probe's readings become series values.
type Kind uint8

const (
	// Gauge samples the probe's instantaneous value.
	Gauge Kind = iota
	// Rate samples a cumulative counter and stores the per-second rate of
	// change over the elapsed interval. A reading below the previous one
	// (counter reset across a server restart or window reset) restarts the
	// baseline instead of going negative.
	Rate
)

func (k Kind) String() string {
	if k == Rate {
		return "rate"
	}
	return "gauge"
}

// Options parameterizes an Engine.
type Options struct {
	// Interval is the virtual-time sampling period (default 100µs).
	Interval des.Duration

	// Capacity is the per-series ring size in samples (default 4096);
	// older samples are overwritten once a run outlives the ring.
	Capacity int
}

// DefaultInterval is the sampling period used when Options.Interval is
// non-positive.
const DefaultInterval = 100 * time.Microsecond

// DefaultCapacity is the ring size used when Options.Capacity is
// non-positive: at the default interval it holds ~400ms of virtual time.
const DefaultCapacity = 4096

// Series is one named time series: a probe plus the ring of sampled
// values. Values align with the engine's shared sample clock; a series
// registered after sampling began simply starts at a later sample index.
type Series struct {
	Name string
	Kind Kind

	probe func() float64
	vals  []float64
	start int // engine sample count at registration

	// Rate state.
	prev   float64
	primed bool
}

// Window is a per-interval latency aggregator: Observe feeds a histogram
// that is quantile-sampled and reset on every engine tick, yielding p50/p99
// series (µs) plus an observation-rate series. All methods are safe on a
// nil receiver.
type Window struct {
	hist  stats.Histogram
	total int64 // cumulative observations (feeds the rate series)
}

// Observe records one latency sample in microseconds.
func (w *Window) Observe(us float64) {
	if w == nil {
		return
	}
	w.hist.Observe(us)
	w.total++
}

// Engine is one simulation's telemetry instance. It inherits the
// simulation's single-threaded discipline: registration and sampling happen
// on simulation processes, readers (Report) run after the simulation
// completes. All methods are safe on a nil receiver.
type Engine struct {
	sim      *des.Sim
	interval des.Duration
	capacity int

	series    []*Series
	byName    map[string]*Series
	windows   []*Window
	winByName map[string]*Window

	times []int64 // shared sample clock ring, virtual ns
	count int     // samples taken (may exceed capacity)
	lastT int64

	running bool
	// gen identifies the current sampler incarnation. Each Start bumps it
	// and the sampling chain keeps the value; a chain whose generation no
	// longer matches ends without sampling. This is what makes
	// Stop-then-Start safe: the old sampler may not see the stop until its
	// next timer tick, and by then a restart has already started its
	// replacement — without the generation check both would keep sampling
	// forever, doubling the tick rate off-phase.
	gen int
}

// New creates an engine bound to sim. The engine does not sample until
// Start is called (typically by the workload at measurement start).
func New(sim *des.Sim, opts Options) *Engine {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	return &Engine{
		sim:       sim,
		interval:  opts.Interval,
		capacity:  opts.Capacity,
		byName:    make(map[string]*Series),
		winByName: make(map[string]*Window),
		times:     make([]int64, opts.Capacity),
	}
}

// Interval returns the sampling period (zero on a nil engine).
func (e *Engine) Interval() des.Duration {
	if e == nil {
		return 0
	}
	return e.interval
}

// Samples returns how many sample ticks have run.
func (e *Engine) Samples() int {
	if e == nil {
		return 0
	}
	return e.count
}

// register adds a series under name, or re-points an existing one's probe
// (a workload re-run on the same cluster re-registers its series).
func (e *Engine) register(name string, kind Kind, probe func() float64) *Series {
	if e == nil {
		return nil
	}
	if s := e.byName[name]; s != nil {
		s.probe = probe
		return s
	}
	s := &Series{
		Name:  name,
		Kind:  kind,
		probe: probe,
		vals:  make([]float64, e.capacity),
		start: e.count,
	}
	e.series = append(e.series, s)
	e.byName[name] = s
	return s
}

// Gauge registers an instantaneous-value probe under name (convention:
// "layer.metric"). Safe on a nil receiver (returns nil).
func (e *Engine) Gauge(name string, probe func() float64) *Series {
	return e.register(name, Gauge, probe)
}

// Counter registers a cumulative-counter probe under name; its series holds
// per-second rates. Safe on a nil receiver (returns nil).
func (e *Engine) Counter(name string, probe func() float64) *Series {
	return e.register(name, Rate, probe)
}

// LatencyWindow registers a per-interval latency aggregator producing the
// series name.p50_us, name.p99_us and name.rate. A repeat call with the
// same name returns the existing Window, mirroring register's re-point
// semantics — a workload re-run on the same cluster must not leak a second
// aggregator (reset every tick forever) or restart the .rate baseline.
// Safe on a nil receiver (returns nil, whose Observe is a no-op).
func (e *Engine) LatencyWindow(name string) *Window {
	if e == nil {
		return nil
	}
	if w := e.winByName[name]; w != nil {
		return w
	}
	w := &Window{}
	e.register(name+".p50_us", Gauge, func() float64 { return w.hist.Quantile(0.50) })
	e.register(name+".p99_us", Gauge, func() float64 { return w.hist.Quantile(0.99) })
	e.register(name+".rate", Rate, func() float64 { return float64(w.total) })
	e.windows = append(e.windows, w)
	e.winByName[name] = w
	return w
}

// Start begins sampling: an immediate baseline sample, then one every
// interval until Stop. Idempotent while running; restarting after Stop
// resumes on the same rings. The new sampler supersedes any stopped one
// still waiting out its final timer tick (see Engine.gen).
func (e *Engine) Start(p *des.Proc) {
	if e == nil || e.running {
		return
	}
	e.running = true
	e.gen++
	e.sampleOnce(int64(p.Now()))
	// The sampler waits only for time, so it is a chain of callbacks, not a
	// process: its first wait begins where a process spawned here would
	// start.
	e.sim.AtArg(e.sim.Now(), samplerWait, &sampler{e: e, gen: e.gen})
}

// sampler is one incarnation of the sampling chain.
type sampler struct {
	e   *Engine
	gen int
}

func samplerWait(a any) {
	s := a.(*sampler)
	sim := s.e.sim
	sim.AtArg(sim.Now()+des.Time(s.e.interval), samplerTick, s)
}

func samplerTick(a any) {
	s := a.(*sampler)
	if e := s.e; s.gen == e.gen && e.running {
		e.sampleOnce(int64(e.sim.Now()))
		samplerWait(s)
	}
}

// Stop takes one final tail sample at the current instant and stops the
// sampler (it exits on its next timer tick without sampling again).
func (e *Engine) Stop() {
	if e == nil || !e.running {
		return
	}
	e.running = false
	e.sampleOnce(int64(e.sim.Now()))
}

// sampleOnce polls every probe at virtual time now. Allocation-free: it
// writes into preallocated rings and resets window histograms by value.
// A duplicate tick at the same instant (Stop racing the timer) is skipped.
func (e *Engine) sampleOnce(now int64) {
	if e.count > 0 && now == e.lastT {
		return
	}
	dt := float64(now-e.lastT) / 1e9
	e.times[e.count%e.capacity] = now
	for _, s := range e.series {
		v := s.probe()
		out := v
		if s.Kind == Rate {
			d := v - s.prev
			if d < 0 {
				// Counter reset (server restart, measurement-window reset):
				// the new reading is the delta since the reset.
				d = v
			}
			s.prev = v
			if !s.primed || dt <= 0 {
				s.primed = true
				out = 0
			} else {
				out = d / dt
			}
		}
		s.vals[(e.count-s.start)%e.capacity] = out
	}
	for _, w := range e.windows {
		w.hist = stats.Histogram{}
	}
	e.count++
	e.lastT = now
}
