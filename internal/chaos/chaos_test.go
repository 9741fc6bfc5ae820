package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments/runner"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
)

// TestChaosSingleRunClean: one seeded schedule against a healthy server
// passes the oracle and actually exercises the machinery (faults fired,
// recovery ran, writes landed).
func TestChaosSingleRunClean(t *testing.T) {
	res := Run(Config{Config: core.Config{Seed: 7, Design: rpcrdma.ReadWrite}, Faults: 4, TraceCapacity: 1 << 20})
	if res.Failed() {
		t.Fatalf("violations: %v %v\nschedule: %v", res.Violations, res.InvariantViolations, res.Schedule)
	}
	if res.Load.WritesAcked == 0 {
		t.Fatal("no writes acknowledged")
	}
	if res.Load.RenamesOK == 0 {
		t.Fatal("no renames completed")
	}
	t.Logf("schedule: %v", res.Schedule)
	t.Logf("fingerprint: %s", res.Fingerprint)
}

// TestChaosDeterministic: same seed, same config => byte-identical run.
func TestChaosDeterministic(t *testing.T) {
	cfg := Config{Config: core.Config{Seed: 11, Design: rpcrdma.ReadRead}, Faults: 5}
	a := Run(cfg)
	b := Run(cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed fingerprints differ:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestChaosReplyFetchDeterministic: the doorbell write-watch and fetch
// proc introduce new event orderings; same seed must still mean a
// byte-identical run, crash/replay deposits included.
func TestChaosReplyFetchDeterministic(t *testing.T) {
	cfg := Config{Config: core.Config{Seed: 17, Design: rpcrdma.ReplyFetch}, Faults: 5}
	a := Run(cfg)
	b := Run(cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed reply-fetch fingerprints differ:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestChaosReplyFetchCrashReplayClean covers the deposited-but-unfetched
// corner directly: a reply-fetch run whose schedule includes server
// crashes must replay every interrupted call through the rebuilt DRC with
// byte-identical results — the integrity oracle reads back every byte, so
// a replay that deposited different bytes (or re-executed a
// non-idempotent op) would surface as a violation.
func TestChaosReplyFetchCrashReplayClean(t *testing.T) {
	res := Run(Config{Config: core.Config{Seed: 9, Design: rpcrdma.ReplyFetch}, Faults: 5,
		MaxCrashes: 2, TraceCapacity: 1 << 20})
	if res.Failed() {
		t.Fatalf("violations: %v %v\nschedule: %v", res.Violations, res.InvariantViolations, res.Schedule)
	}
	if res.Crashes == 0 {
		t.Skip("seed produced no crash; crash replay not exercised")
	}
	if res.Replays == 0 {
		t.Fatal("crash happened but nothing was replayed")
	}
	t.Logf("crashes=%d replays=%d drc=%d/%d", res.Crashes, res.Replays, res.DRCHits, res.DRCMisses)
}

// TestChaosCrashWithReceivesQueued: this schedule crashes the per-connection
// server while a receive loop still has completions queued ahead of the flush
// error. Shutdown has closed the work queue by then, so the receive step must
// drop (and count) those messages; it used to put them on the closed queue
// and take the whole run down with "put on closed queue". The schedule is
// seed 15's, armed in absolute time, where it found the bug.
func TestChaosCrashWithReceivesQueued(t *testing.T) {
	sched := Generate(15, GenConfig{Faults: 6, Clients: 2})
	cfg := Config{Config: core.Config{Seed: 15, Design: rpcrdma.ReplyFetch}, Schedule: &sched}
	a := Run(cfg)
	if a.Failed() {
		t.Fatalf("violations: %v %v\nschedule: %v", a.Violations, a.InvariantViolations, a.Schedule)
	}
	if a.Crashes == 0 {
		t.Fatal("schedule no longer crashes the server; the case is not exercised")
	}
	if b := Run(cfg); a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed fingerprints differ:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestGeneratedFaultsLandAfterSetUp: a generated schedule's fault times
// count from when the load starts, so a registration mode whose cluster
// set-up outlasts the generator's window — FMR's pools take 23 ms, the
// window is [0.5, 3] ms — still has its faults hit live connections. Every
// design, per-connection and multiplexed, two seeds: each run must see a
// reconnect or a crash, and replaying the schedule it reports, as an
// explicit one, must reproduce it.
func TestGeneratedFaultsLandAfterSetUp(t *testing.T) {
	for _, d := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
		for _, mux := range []bool{false, true} {
			for seed := uint64(1); seed <= 2; seed++ {
				cfg := Config{Config: core.Config{Seed: seed, Design: d, RegMode: memreg.FMR,
					Multiplex: mux, Affinity: mux}, Faults: 4}
				res := Run(cfg)
				if res.Reconnects+res.Crashes == 0 {
					t.Errorf("%v mux=%t seed=%d: no fault landed (%v): %s", d, mux, seed, res.Schedule, res.Fingerprint)
				}
				cfg.Schedule = &res.Schedule
				if again := Run(cfg); again.Fingerprint != res.Fingerprint {
					t.Errorf("%v mux=%t seed=%d: replaying %v gives\n  %s\nnot\n  %s", d, mux, seed, res.Schedule, again.Fingerprint, res.Fingerprint)
				}
			}
		}
	}
}

// TestChaosEveryRegistrationMode: the soak's fault schedules under every
// design, registration mode and server receive path, two seeds each. Every
// run must satisfy the data oracle and the trace invariants as its mode
// prices them, and see its faults land (a reconnect or a crash).
func TestChaosEveryRegistrationMode(t *testing.T) {
	type cell struct {
		design rpcrdma.Design
		mode   memreg.Mode
		path   string
		seed   uint64
	}
	var grid []cell
	for _, d := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
		for _, m := range []memreg.Mode{memreg.Regular, memreg.FMR, memreg.AllPhysical, memreg.Cache} {
			for _, path := range []string{"per-conn", "sharded", "mux"} {
				for seed := uint64(1); seed <= 2; seed++ {
					grid = append(grid, cell{d, m, path, seed})
				}
			}
		}
	}
	results := runner.Map(len(grid), func(i int) *Result {
		c := grid[i]
		cc := core.Config{Seed: c.seed, Design: c.design, RegMode: c.mode}
		if c.path != "per-conn" {
			cc.ServerShards = 2
		}
		cc.Multiplex = c.path == "mux"
		cc.Affinity = cc.Multiplex
		return Run(Config{Config: cc, Faults: 4, TraceCapacity: 1 << 20})
	})
	for i, res := range results {
		c := grid[i]
		if res.Failed() {
			t.Errorf("%v/%v/%s seed=%d: %v %v\n  schedule: %v", c.design, c.mode, c.path, c.seed,
				res.Violations, res.InvariantViolations, res.Schedule)
		}
		if res.Reconnects+res.Crashes == 0 {
			t.Errorf("%v/%v/%s seed=%d: no fault landed: %s", c.design, c.mode, c.path, c.seed, res.Fingerprint)
		}
	}
}

// chaosSoakSeeds returns the soak width: 32 seeds by default (the
// acceptance floor), overridable with CHAOS_SEEDS=n for longer campaigns.
func chaosSoakSeeds(t *testing.T) int {
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS=%q", s)
		}
		return n
	}
	return 32
}

// TestChaosSoak: N seeded schedules × {Read-Read, Read-Write, Reply-Fetch}
// must pass the data-integrity oracle and every trace invariant checker.
// Runs fan out across cores deterministically (index-keyed results).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak; skipped in -short")
	}
	seeds := chaosSoakSeeds(t)
	type point struct {
		seed   uint64
		design rpcrdma.Design
	}
	var grid []point
	for _, d := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
		for s := 1; s <= seeds; s++ {
			grid = append(grid, point{seed: uint64(s), design: d})
		}
	}
	results := runner.Map(len(grid), func(i int) *Result {
		pt := grid[i]
		shards := 0
		if pt.seed%2 == 0 {
			shards = 2 // alternate seeds exercise the sharded dispatch path
		}
		return Run(Config{
			Config: core.Config{Seed: pt.seed, Design: pt.design, ServerShards: shards},
			Faults: 4, TraceCapacity: 1 << 20,
		})
	})
	failed := 0
	for i, res := range results {
		if res.Failed() {
			failed++
			t.Errorf("seed=%d design=%v: %v %v\n  schedule: %v",
				grid[i].seed, grid[i].design, res.Violations, res.InvariantViolations, res.Schedule)
		}
	}
	if failed == 0 {
		t.Logf("%d runs clean (%d seeds × 3 designs)", len(results), seeds)
	}
}

// TestChaosSoakMux: the same seeded fault schedules against the shared-QP
// (multiplexed) server. Faults now land on endpoints of a shared QP, so the
// runs soak the endpoint-scoped error paths — a killed client's siblings
// must keep running, redials must reuse freed slots, and crash/restart must
// tear down and re-arm the shared QPs. Alternate seeds pin reply processing
// to the completion CPU so both affinity paths soak too.
func TestChaosSoakMux(t *testing.T) {
	if testing.Short() {
		t.Skip("soak; skipped in -short")
	}
	seeds := chaosSoakSeeds(t)
	type point struct {
		seed   uint64
		design rpcrdma.Design
	}
	var grid []point
	for _, d := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
		for s := 1; s <= seeds; s++ {
			grid = append(grid, point{seed: uint64(s), design: d})
		}
	}
	results := runner.Map(len(grid), func(i int) *Result {
		pt := grid[i]
		return Run(Config{
			Config: core.Config{Seed: pt.seed, Design: pt.design, ServerShards: 2,
				Multiplex: true, Affinity: pt.seed%2 == 0},
			Faults: 4, TraceCapacity: 1 << 20,
		})
	})
	failed := 0
	for i, res := range results {
		if res.Failed() {
			failed++
			t.Errorf("seed=%d design=%v: %v %v\n  schedule: %v",
				grid[i].seed, grid[i].design, res.Violations, res.InvariantViolations, res.Schedule)
		}
	}
	if failed == 0 {
		t.Logf("%d mux runs clean (%d seeds × 3 designs)", len(results), seeds)
	}
}

// TestChaosMuxDeterministic: same seed, same multiplexed config =>
// byte-identical run, fingerprint included.
func TestChaosMuxDeterministic(t *testing.T) {
	cfg := Config{Config: core.Config{Seed: 13, Design: rpcrdma.ReadWrite, ServerShards: 2, Multiplex: true, Affinity: true}, Faults: 5}
	a := Run(cfg)
	b := Run(cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed mux fingerprints differ:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
}

// TestChaosBrokenDRCCaughtAndShrinks: with the DRC disabled (the
// deliberately-broken server), some seed must produce an illegal RENAME
// re-execution that the oracle flags, and the shrinker must reduce that
// schedule to at most 3 faults.
func TestChaosBrokenDRCCaughtAndShrinks(t *testing.T) {
	cfgFor := func(seed uint64, sched *Schedule) Config {
		return Config{
			Config: core.Config{Seed: seed, Design: rpcrdma.ReadWrite, DRCEntries: -1},
			Faults: 6, MaxCrashes: 1, Schedule: sched,
		}
	}
	var failing *Result
	var seed uint64
	for s := uint64(1); s <= 24; s++ {
		res := Run(cfgFor(s, nil))
		if len(res.Violations) > 0 {
			failing = res
			seed = s
			break
		}
	}
	if failing == nil {
		t.Fatal("no seed in 1..24 made the broken DRC visible; oracle or workload too weak")
	}
	t.Logf("seed=%d caught broken DRC: %v", seed, failing.Violations[0])
	t.Logf("original schedule (%d faults): %v", len(failing.Schedule.Faults), failing.Schedule)

	shrunk := Shrink(failing.Schedule, func(s Schedule) bool {
		r := Run(cfgFor(seed, &s))
		return len(r.Violations) > 0
	})
	t.Logf("shrunk schedule (%d faults): %v", len(shrunk.Faults), shrunk)
	if len(shrunk.Faults) > 3 {
		t.Errorf("shrunk schedule still has %d faults, want <= 3: %v", len(shrunk.Faults), shrunk)
	}
	// The shrunk schedule must still reproduce.
	if r := Run(cfgFor(seed, &shrunk)); len(r.Violations) == 0 {
		t.Error("shrunk schedule no longer reproduces the violation")
	}
}

// TestShrinkMinimizesSyntheticPredicate pins the ddmin mechanics without
// simulation cost: failure requires faults {2, 5} to both survive.
func TestShrinkMinimizesSyntheticPredicate(t *testing.T) {
	var faults []Fault
	for i := 0; i < 8; i++ {
		faults = append(faults, Fault{At: des.Time(1000 * i), Client: i})
	}
	full := Schedule{Seed: 42, Faults: faults}
	fails := func(s Schedule) bool {
		has := func(client int) bool {
			for _, f := range s.Faults {
				if f.Client == client {
					return true
				}
			}
			return false
		}
		return has(2) && has(5)
	}
	shrunk := Shrink(full, fails)
	if len(shrunk.Faults) != 2 {
		t.Fatalf("shrunk to %d faults, want 2: %v", len(shrunk.Faults), shrunk)
	}
	if !fails(shrunk) {
		t.Fatal("shrunk schedule does not fail")
	}
}

// TestGenerateDeterministicAndSorted pins the generator: same seed, same
// schedule; fault times are sorted.
func TestGenerateDeterministicAndSorted(t *testing.T) {
	cfg := GenConfig{Faults: 12, Clients: 3, MaxCrashes: 3}
	a := Generate(99, cfg)
	b := Generate(99, cfg)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same-seed schedules differ:\n%v\n%v", a, b)
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].At < a.Faults[i-1].At {
			t.Fatalf("faults not sorted by time: %v", a)
		}
	}
	if Generate(100, cfg).String() == a.String() {
		t.Fatal("different seeds produced identical schedules")
	}
}
