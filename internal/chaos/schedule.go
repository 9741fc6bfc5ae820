package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/telemetry"
)

// FaultKind classifies one scheduled fault.
type FaultKind int

// Fault kinds composed by the generator.
const (
	// FaultQPError injects a QP error on one client's live connection
	// (in-flight WQEs flush, both ends observe the death).
	FaultQPError FaultKind = iota
	// FaultLinkFlap kills every live connection between one client and the
	// server at the fire instant; connections created afterwards survive.
	FaultLinkFlap
	// FaultServerCrash crashes the server (DRC, registration state, parked
	// replies, SRQ pools, page cache all die) and restarts it after
	// Downtime.
	FaultServerCrash
)

func (k FaultKind) String() string {
	switch k {
	case FaultQPError:
		return "qperr"
	case FaultLinkFlap:
		return "flap"
	case FaultServerCrash:
		return "crash"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one scheduled fault.
type Fault struct {
	At   des.Time
	Kind FaultKind
	// Client targets FaultQPError / FaultLinkFlap (index into the cluster's
	// clients).
	Client int
	// Downtime is the crash-to-restart delay (FaultServerCrash only).
	Downtime des.Duration
}

func (f Fault) String() string {
	switch f.Kind {
	case FaultServerCrash:
		return fmt.Sprintf("t=%dµs crash(down=%dµs)", int64(f.At)/1000, int64(f.Downtime)/1000)
	default:
		return fmt.Sprintf("t=%dµs %v(client%d)", int64(f.At)/1000, f.Kind, f.Client)
	}
}

// Schedule is a reproducible fault schedule: the seed that generated it
// plus the (possibly shrunk) fault list, sorted by time.
type Schedule struct {
	Seed   uint64
	Faults []Fault
}

func (s Schedule) String() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return fmt.Sprintf("seed=%d [%s]", s.Seed, strings.Join(parts, "; "))
}

// FaultWindows converts the schedule to telemetry fault windows: a crash
// spans [At, At+Downtime]; QP errors and link flaps are instantaneous.
func (s Schedule) FaultWindows() []telemetry.FaultWindow {
	out := make([]telemetry.FaultWindow, 0, len(s.Faults))
	for _, f := range s.Faults {
		w := telemetry.FaultWindow{
			Name:   f.String(),
			StartS: f.At.Seconds(),
			EndS:   f.At.Seconds(),
		}
		if f.Kind == FaultServerCrash {
			w.EndS = (f.At + des.Time(f.Downtime)).Seconds()
		}
		out = append(out, w)
	}
	return out
}

// GenConfig parameterizes schedule generation.
type GenConfig struct {
	// Faults is how many faults to compose; zero composes none.
	Faults int
	// Clients is the cluster size faults target.
	Clients int
	// MaxCrashes bounds how many of the faults may be server crashes.
	MaxCrashes int
}

func (c *GenConfig) defaults() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.MaxCrashes <= 0 {
		c.MaxCrashes = 2
	}
}

// horizon is the workload's expected span: fault times are drawn from
// [horizon/8, 3·horizon/4] so they land while work is in flight. Crash
// downtimes are drawn from [minDowntime, maxDowntime).
const (
	horizon     = 4 * time.Millisecond
	minDowntime = 200 * time.Microsecond
	maxDowntime = minDowntime + 2*time.Millisecond
)

// Generate composes a fault schedule from a single seeded des.Rand stream.
// The same (seed, cfg) always yields the same schedule.
func Generate(seed uint64, cfg GenConfig) Schedule {
	cfg.defaults()
	rng := des.NewRand(seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	lo := int64(horizon) / 8
	hi := int64(horizon) * 3 / 4
	crashes := 0
	faults := make([]Fault, 0, cfg.Faults)
	for i := 0; i < cfg.Faults; i++ {
		f := Fault{At: des.Time(lo + rng.Int63n(hi-lo))}
		switch r := rng.Intn(100); {
		case r < 30 && crashes < cfg.MaxCrashes:
			crashes++
			f.Kind = FaultServerCrash
			f.Downtime = minDowntime + des.Duration(rng.Int63n(int64(maxDowntime-minDowntime)))
		case r < 65:
			f.Kind = FaultQPError
			f.Client = rng.Intn(cfg.Clients)
		default:
			f.Kind = FaultLinkFlap
			f.Client = rng.Intn(cfg.Clients)
		}
		faults = append(faults, f)
	}
	sort.Slice(faults, func(i, j int) bool {
		a, b := faults[i], faults[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Downtime < b.Downtime
	})
	return Schedule{Seed: seed, Faults: faults}
}

// Apply arms every fault on the cluster's simulation. Must be called before
// Run. Fault actions resolve their targets at fire time — the client's
// CURRENT connection, the server's CURRENT transport — because recovery
// replaces both while the schedule plays out. Crashes notify the oracle
// (when non-nil) so it can judge replay anomalies against crash windows;
// a crash firing while the server is already down is a no-op.
func (s Schedule) Apply(c *core.Cluster, o *Oracle) {
	for _, f := range s.Faults {
		f := f
		switch f.Kind {
		case FaultQPError:
			c.Sim.At(f.At, func() {
				cl := c.Clients[f.Client%len(c.Clients)]
				if cl.RDMA != nil && !cl.RDMA.Broken() {
					cl.RDMA.QP().InjectError(nil)
				}
			})
		case FaultLinkFlap:
			cl := c.Clients[f.Client%len(c.Clients)]
			c.Fabric.ScheduleLinkFlap(f.At, cl.Node, c.Server.Node)
		case FaultServerCrash:
			c.Sim.SpawnAt(f.At, "chaos-crash", func(p *des.Proc) {
				if c.ServerDown() {
					return
				}
				if o != nil {
					o.ServerCrashed(p.Now(), p.Now()+des.Time(f.Downtime))
				}
				c.CrashServer(p)
				p.Sleep(f.Downtime)
				c.RestartServer(p)
			})
		}
	}
}
