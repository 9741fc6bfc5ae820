package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestSpec checks BENCHMARK.json against the limits of the benchmark
// contract and against the workloads the program implements.
func TestSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	impl := allWorkloads()
	if len(sp.Workloads) != len(impl) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program implements %d", len(sp.Workloads), len(impl))
	}
	for i, w := range sp.Workloads {
		check(w.Name)
		if w.Name != impl[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, impl[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range sp.PerLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", sp.RunSeconds)
	}
}

// hostMeasured reports whether a metric is a host-side measurement, which
// carries noise; everything else is virtual time or a count and must repeat
// exactly for a seed.
func hostMeasured(name string) bool {
	return strings.HasPrefix(name, "host_") || name == "setup_s" ||
		strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_allocs") || strings.HasSuffix(name, ".host_pct") ||
		name == "trace.overhead_pct" || name == "harness.calib_drift_pct"
}

// TestSmokeAndDeterminism runs every workload end to end and through the
// per-layer pass at smoke size. The runs must be correct (which includes:
// exactly the metrics BENCHMARK.json lists were measured), two same-seed
// runs must agree on every simulated value and traced count, and another
// seed must change the inputs.
func TestSmokeAndDeterminism(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(traced bool, seed uint64) *result {
				t.Helper()
				res := measure(w, options{seed: seed, size: smokeSize}, traced, sp)
				for _, p := range res.problems {
					t.Error(p)
				}
				return res
			}
			for _, traced := range []bool{false, true} {
				a, b := run(traced, 1), run(traced, 1)
				for name, v := range a.Metrics {
					if !hostMeasured(name) && b.Metrics[name] != v {
						t.Errorf("%s: %v and %v from two runs of seed 1", name, v.Value, b.Metrics[name].Value)
					}
				}
				if traced {
					continue
				}
				c := run(false, 2)
				same := true
				for name, v := range a.Metrics {
					same = same && (hostMeasured(name) || c.Metrics[name] == v)
				}
				if same {
					t.Error("seed 2 gave exactly the simulated results of seed 1: the inputs do not depend on the seed")
				}
			}
		})
	}
}
