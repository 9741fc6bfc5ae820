package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
)

// chaosReportDigest folds a chaos run's telemetry — CSV series plus every
// finding — into one comparable string.
func chaosReportDigest(r *telemetry.Report) string {
	if r == nil {
		return "<nil>"
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		return "csv error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(csv.String())
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "%s\n", f)
	}
	return b.String()
}

// TestChaosRecoveryAnnotation is the acceptance check for chaos-window
// annotation: a run with one scheduled server crash must produce a
// telemetry report whose chaos-recovery finding carries a measured,
// positive recovery duration — the time from the crash to the acked-write
// rate regaining its pre-fault baseline.
func TestChaosRecoveryAnnotation(t *testing.T) {
	sched := &Schedule{Seed: 9, Faults: []Fault{{
		At:       des.Time(1 * time.Millisecond),
		Kind:     FaultServerCrash,
		Downtime: des.Duration(500 * time.Microsecond),
	}}}
	cfg := Config{
		Config:            core.Config{Seed: 9, Design: rpcrdma.ReadWrite},
		Schedule:          sched,
		TelemetryInterval: des.Duration(50 * time.Microsecond),
	}
	res := Run(cfg)
	if res.Failed() {
		t.Fatalf("violations: %v %v", res.Violations, res.InvariantViolations)
	}
	if res.Report == nil || len(res.Report.TimesS) == 0 {
		t.Fatal("telemetry-enabled chaos run produced no report")
	}
	if res.Crashes != 1 {
		t.Fatalf("got %d crashes, want 1", res.Crashes)
	}

	var rec []telemetry.Finding
	for _, f := range res.Report.Findings {
		if f.Detector == "chaos-recovery" {
			rec = append(rec, f)
		}
	}
	if len(rec) != 1 {
		t.Fatalf("got %d chaos-recovery findings, want 1:\n%v", len(rec), res.Report.Findings)
	}
	f := rec[0]
	t.Logf("recovery finding: %s", f)
	if f.Value < 0 {
		t.Fatalf("crash not recovered within the run: %s", f)
	}
	// The measured recovery can't beat the scheduled downtime: the server
	// is gone for the whole window.
	if down := (500 * time.Microsecond).Seconds(); f.Value < down {
		t.Fatalf("recovery %.6fs shorter than the crash window %.6fs", f.Value, down)
	}
	if f.StartS != (1 * time.Millisecond).Seconds() {
		t.Fatalf("finding starts at %.6fs, want the crash instant 0.001s", f.StartS)
	}
}

// TestChaosTelemetryDeterministic: same seed and schedule produce
// byte-identical telemetry — series and findings — alongside the existing
// fingerprint identity.
func TestChaosTelemetryDeterministic(t *testing.T) {
	cfg := Config{
		Config:            core.Config{Seed: 11, Design: rpcrdma.ReadRead},
		Faults:            5,
		TelemetryInterval: des.Duration(100 * time.Microsecond),
	}
	a := Run(cfg)
	b := Run(cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same-seed fingerprints differ:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
	da, db := chaosReportDigest(a.Report), chaosReportDigest(b.Report)
	if da != db {
		t.Fatalf("same-seed telemetry differs:\n%s\n---\n%s", da, db)
	}
	if da == "<nil>" {
		t.Fatal("telemetry-enabled chaos run produced no report")
	}
	// Every scheduled fault must be annotated, recovered or not.
	var rec int
	for _, f := range a.Report.Findings {
		if f.Detector == "chaos-recovery" {
			rec++
		}
	}
	if rec != len(a.Schedule.Faults) {
		t.Fatalf("%d chaos-recovery findings for %d scheduled faults", rec, len(a.Schedule.Faults))
	}
}
