// Package chaos is the deterministic chaos engine: seeded fault schedules
// composing QP errors, link flaps, and server crash/restart cycles on top
// of the DES; a data-integrity oracle that checks every byte a client
// observes against the legal write history; and a delta-debugging shrinker
// that reduces a failing schedule to a minimal reproducer. Everything is
// driven from des.Rand streams, so any failure reproduces from its seed.
package chaos

import (
	"fmt"

	"repro/internal/des"
)

// maxViolations bounds the recorded violation messages per run; counts keep
// accumulating past the cap.
const maxViolations = 16

type recKey struct {
	file string
	rec  int
}

// record is the oracle's model of one fixed-size record slot in a file.
// The workload writes whole records filled with a single value byte, so
// the legal contents of a slot at any instant are:
//
//   - the value of the last acknowledged write (committed), or
//   - any issued-but-unresolved value (pending): the write's call failed
//     terminally, so the client cannot know whether it executed — the
//     workload retires such records and never supersedes the value, which
//     keeps this set sound forever, or
//   - zero, if no write was ever acknowledged (the slot may be a hole).
//
// All writes are FileSync against stable storage, so an acknowledged value
// survives crashes; an in-flight (not yet failed, not yet acked) value is
// also pending during its call window.
type record struct {
	committed byte
	acked     bool
	pending   map[byte]bool
}

type crashWindow struct {
	start, end des.Time
}

// Oracle is the data-integrity model filesystem. All methods run inside the
// simulation (single-threaded cooperative procs), so there is no locking.
type Oracle struct {
	recs    map[recKey]*record
	crashes []crashWindow

	// Violations holds the first maxViolations failure descriptions.
	Violations []string
	// ViolationCount is the total, including ones past the message cap.
	ViolationCount int64

	WritesIssued, WritesAcked, WritesFailed int64
	ReadsChecked                            int64
	RenameChecks                            int64
}

// NewOracle creates an empty model.
func NewOracle() *Oracle {
	return &Oracle{recs: make(map[recKey]*record)}
}

func (o *Oracle) rec(file string, rec int) *record {
	k := recKey{file, rec}
	r, ok := o.recs[k]
	if !ok {
		r = &record{pending: make(map[byte]bool)}
		o.recs[k] = r
	}
	return r
}

// Violation records one oracle failure.
func (o *Oracle) Violation(format string, args ...any) {
	o.ViolationCount++
	if len(o.Violations) < maxViolations {
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
}

// Report is what a run's result carries: the recorded violations, then one
// line counting those past the message cap.
func (o *Oracle) Report() []string {
	out := o.Violations
	if extra := o.ViolationCount - int64(len(out)); extra > 0 {
		out = append(out, fmt.Sprintf("... and %d more", extra))
	}
	return out
}

// WriteIssued records that a write of val to (file, rec) is on the wire:
// from this instant the value may legally appear in reads.
func (o *Oracle) WriteIssued(file string, rec int, val byte) {
	o.WritesIssued++
	o.rec(file, rec).pending[val] = true
}

// WriteAcked resolves an issued write as executed: val becomes the
// committed value and stops being merely pending.
func (o *Oracle) WriteAcked(file string, rec int, val byte) {
	o.WritesAcked++
	r := o.rec(file, rec)
	r.committed = val
	r.acked = true
	delete(r.pending, val)
}

// WriteFailed resolves an issued write as terminally failed at the client:
// the server may or may not have executed it, so val stays in the pending
// set forever. The workload must retire the record (never write it again) —
// a later write superseding an unresolved value would make this set
// unsound.
func (o *Oracle) WriteFailed(file string, rec int, val byte) {
	o.WritesFailed++
	_ = o.rec(file, rec) // pending entry already present from WriteIssued
}

// ReadObserved checks the bytes a READ returned for (file, rec) against the
// legal set. data shorter than the record means the tail was a hole (the
// caller zero-fills), which is legal only when no write was ever
// acknowledged.
func (o *Oracle) ReadObserved(file string, rec int, data []byte) {
	o.ReadsChecked++
	r := o.rec(file, rec)
	for i, b := range data {
		if b == r.committed && r.acked {
			continue
		}
		if b == 0 && !r.acked {
			continue
		}
		if r.pending[b] {
			continue
		}
		o.Violation("read %s rec %d byte %d: got %#x, legal committed=%#x(acked=%v) pending=%v",
			file, rec, i, b, r.committed, r.acked, pendingSet(r.pending))
		return // one violation per read is enough
	}
}

func pendingSet(m map[byte]bool) []int {
	var out []int
	for b := range m {
		out = append(out, int(b))
	}
	// Deterministic order for messages.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// ServerCrashed records a crash window [at, until): the instant the DRC
// died through the restart that made the server reachable again.
func (o *Oracle) ServerCrashed(at, until des.Time) {
	o.crashes = append(o.crashes, crashWindow{start: at, end: until})
}

// Crashes returns how many server crashes the oracle was told about.
func (o *Oracle) Crashes() int { return len(o.crashes) }

// RenameENOENT judges an NFS3ERR_NOENT returned by a RENAME whose call
// window was [start, end]. A healthy server never re-executes a replayed
// RENAME — the DRC answers it — so ENOENT is legal ONLY when the call
// overlapped a server crash: the crash wiped the DRC, and the post-restart
// replay legitimately re-executed. An ENOENT outside every crash window
// means the DRC failed to suppress a duplicate — the replay bug this
// oracle exists to catch. Returns whether the ENOENT was legal.
func (o *Oracle) RenameENOENT(start, end des.Time) bool {
	o.RenameChecks++
	for _, w := range o.crashes {
		if start <= w.end && w.start <= end {
			return true
		}
	}
	o.Violation("RENAME got NFS3ERR_NOENT at t=[%d,%d] with no overlapping server crash: duplicate RENAME re-executed (DRC replay failure)",
		int64(start), int64(end))
	return false
}
