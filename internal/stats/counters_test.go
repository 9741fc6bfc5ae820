package stats

import (
	"sort"
	"testing"
)

// TestSnapshotSorted pins the determinism contract experiment tables rely
// on: Snapshot returns counters sorted by name regardless of insertion
// order, so reports are byte-identical across runs and map iteration order.
func TestSnapshotSorted(t *testing.T) {
	c := NewCounters()
	names := []string{"zeta", "alpha", "mid", "beta", "omega", "a0", "z9"}
	for i, n := range names {
		c.Add(n, int64(i+1))
	}
	for trial := 0; trial < 10; trial++ {
		snap := c.Snapshot()
		if len(snap) != len(names) {
			t.Fatalf("Snapshot has %d entries, want %d", len(snap), len(names))
		}
		if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
			t.Fatalf("Snapshot not sorted by name: %v", snap)
		}
	}
	snap := c.Snapshot()
	if snap[0].Name != "a0" || snap[len(snap)-1].Name != "zeta" {
		t.Fatalf("unexpected order: first=%q last=%q", snap[0].Name, snap[len(snap)-1].Name)
	}
	for _, cv := range snap {
		if cv.Value != c.Get(cv.Name) {
			t.Fatalf("counter %q snapshot=%d live=%d", cv.Name, cv.Value, c.Get(cv.Name))
		}
	}
}

// TestSlotSnapshotByteIdentical: a counter set where some names were
// pre-registered as slots, before or after their first write, must render
// exactly the same Snapshot — same names, same sorted order, same values — as
// a plain set fed the same increments.
func TestSlotSnapshotByteIdentical(t *testing.T) {
	type op struct {
		name  string
		delta int64
	}
	ops := []op{
		{"op.send", 3}, {"bytes.send", 4096}, {"qp.error", 1},
		{"op.send", 2}, {"rnr", 1}, {"bytes.send", 512},
		{"wqe.flushed", 7}, {"fault.injected", 2}, {"op.read", 9},
	}
	plain := NewCounters()
	slotted := NewCounters()
	// Pre-register a mix: some before any writes, one after its first, one
	// that never fires (must stay out of the snapshot).
	slotted.Slot("op.send")
	slotted.Slot("bytes.send")
	slotted.Slot("never.fired")
	for i, o := range ops {
		plain.Add(o.name, o.delta)
		slotted.Add(o.name, o.delta)
		if i == 4 {
			// Register a name that already accumulated through Add.
			slotted.Slot("rnr")
		}
	}
	a, b := plain.Snapshot(), slotted.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths differ: plain=%v slotted=%v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshot[%d] differs: plain=%+v slotted=%+v", i, a[i], b[i])
		}
	}
	for _, cv := range a {
		if got := slotted.Get(cv.Name); got != cv.Value {
			t.Fatalf("Get(%q)=%d, want %d", cv.Name, got, cv.Value)
		}
	}
}

// TestSlotMigrationAndReset pins the slot lifecycle: registering a name keeps
// the value it accumulated through Add, re-registration returns the same
// slot, and Reset zeroes slots and hides never-rewritten names from Snapshot.
func TestSlotMigrationAndReset(t *testing.T) {
	c := NewCounters()
	c.Add("hot", 41)
	s := c.Slot("hot")
	if s.Load() != 41 {
		t.Fatalf("migrated slot = %d, want 41", s.Load())
	}
	s.Inc()
	if got := c.Get("hot"); got != 42 {
		t.Fatalf("Get after slot Inc = %d, want 42", got)
	}
	if again := c.Slot("hot"); again != s {
		t.Fatalf("re-registration returned a different slot")
	}
	c.Add("cold", 5)
	c.Reset()
	if got := c.Get("hot"); got != 0 {
		t.Fatalf("Get after Reset = %d, want 0", got)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("Snapshot after Reset = %v, want empty", snap)
	}
	// The held slot pointer keeps working after Reset.
	s.Add(3)
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0] != (CounterValue{Name: "hot", Value: 3}) {
		t.Fatalf("Snapshot after post-Reset Add = %v", snap)
	}
}
