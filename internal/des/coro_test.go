package des

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// recoverRun runs s and returns what s.Run panicked with, as text, or "".
func recoverRun(s *Sim) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	s.Run()
	return ""
}

// TestProcessPanicSurfacesFromRun: a panic inside a process reaches the
// caller of Run, on the caller's goroutine, with the process name and the
// original value, and the rest of the simulation is unwound behind it.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	cleaned := false
	s.Spawn("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	s.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic(errors.New("model bug 42"))
	})
	msg := recoverRun(s)
	if !strings.Contains(msg, `"faulty"`) || !strings.Contains(msg, "model bug 42") {
		t.Fatalf("Run panicked with %q, want the process name and the original value", msg)
	}
	if !cleaned {
		t.Error("parked bystander was not unwound after the panic")
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak after a process panic: %d before, %d after", before, after)
	}
}

// TestForeignProcPanics: blocking on a *Proc from a process that does not
// own it is reported with both names instead of switching the wrong
// coroutine.
func TestForeignProcPanics(t *testing.T) {
	s := New()
	b := s.Spawn("B", func(p *Proc) { p.Sleep(time.Hour) })
	s.Spawn("A", func(p *Proc) {
		p.Sleep(1) // B is parked by now
		b.Sleep(1)
	})
	msg := recoverRun(s)
	if !strings.Contains(msg, `"A"`) || !strings.Contains(msg, `"B"`) {
		t.Fatalf("Run panicked with %q, want a message naming A and B", msg)
	}
}

// TestLateProcUsePanics: a *Proc kept past the return of its process cannot
// block either, whether from a callback or from another process.
func TestLateProcUsePanics(t *testing.T) {
	for _, from := range []string{"callback", "process"} {
		s := New()
		done := s.Spawn("done", func(p *Proc) {})
		if from == "callback" {
			s.At(5, func() { done.Sleep(1) })
		} else {
			s.SpawnAt(5, "late-user", func(p *Proc) { NewEvent(s).Wait(done) })
		}
		if msg := recoverRun(s); !strings.Contains(msg, `"done"`) {
			t.Errorf("late use from a %s: Run panicked with %q, want a message naming the process", from, msg)
		}
	}
}

// TestAtRunsWhereSpawnAtWouldStart issues one seeded random schedule of
// non-parking bodies twice — as processes and as callbacks — among sleeping
// processes and with many same-instant ties. The bodies, and everything
// they and the sleepers schedule in turn, must execute in the same order.
func TestAtRunsWhereSpawnAtWouldStart(t *testing.T) {
	run := func(useAt bool) []string {
		s := New()
		rng := NewRand(20070910)
		var log []string
		var issue func(at Time, id string, depth int)
		issue = func(at Time, id string, depth int) {
			body := func() {
				log = append(log, fmt.Sprintf("%s@%d", id, s.Now()))
				for depth < 3 && rng.Intn(3) == 0 {
					depth++
					issue(s.Now()+Time(rng.Intn(3)), id+"."+fmt.Sprint(depth), depth)
				}
			}
			if useAt {
				s.At(at, body)
			} else {
				s.SpawnAt(at, id, func(*Proc) { body() })
			}
		}
		ev := NewEvent(s)
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("sleeper%d", i)
			s.Spawn(name, func(p *Proc) {
				for j := 0; j < 25; j++ {
					p.Sleep(Duration(rng.Intn(4)))
					log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
					issue(p.Now()+Time(rng.Intn(2)), fmt.Sprintf("%s.%d", name, j), 1)
				}
				ev.Wait(p)
				log = append(log, name+" woken")
			})
		}
		for i := 0; i < 400; i++ {
			issue(Time(rng.Intn(80)), fmt.Sprintf("b%d", i), 0)
		}
		issue(200, "fire", 3)
		s.At(200, func() { ev.Fire(nil) })
		s.Run()
		return log
	}
	procs, calls := run(false), run(true)
	if len(procs) < 1000 {
		t.Fatalf("schedule too small to mean anything: %d entries", len(procs))
	}
	if len(procs) != len(calls) {
		t.Fatalf("%d entries as processes, %d as callbacks", len(procs), len(calls))
	}
	for i := range procs {
		if procs[i] != calls[i] {
			t.Fatalf("order diverges at entry %d: %s as a process, %s as a callback", i, procs[i], calls[i])
		}
	}
}

// TestAcquireThenKeepsFIFOWithProcesses runs one seeded schedule of users of
// two shared resources (take A, take B, hold, give back B then A: a port
// pair) three times: every user a process, a seeded half of them callback
// chains, and all of them callback chains. Requests collide at the same
// instant and wait behind each other, and the users ask for different
// amounts, so a grant out of arrival order or one event out of place changes
// the log. The all-process run is the reference.
// TestQueueWaitThenKeepsFIFOWithProcesses: getters that wait with WaitThen
// and getters that block in Get take the same items at the same instants,
// whatever the mix — including those that arrive while items are queued, a
// woken getter another one beats to its item, and the ones the Close wakes.
func TestQueueWaitThenKeepsFIFOWithProcesses(t *testing.T) {
	run := func(chain func(i int) bool) (log []string) {
		s := New()
		q := NewQueue(s, "q")
		took := func(id string, v any, ok bool) {
			log = append(log, fmt.Sprintf("%s@%d %v %v", id, s.Now(), v, ok))
		}
		for k := 0; k < 6; k++ {
			s.At(Time(k/2*3), func() { q.Put(k) }) // pairs at 0, 3 and 6
		}
		s.At(9, q.Close)
		for i := 0; i < 9; i++ {
			id, at := fmt.Sprintf("g%d", i), Time(i)
			if chain(i) {
				var got func(any)
				got = func(any) {
					if v, ok := q.TryGet(); ok || q.closed {
						took(id, v, ok)
						return
					}
					q.WaitThen(got, nil) // beaten to the item: wait again, at the back
				}
				s.At(at, func() { q.WaitThen(got, nil) })
				continue
			}
			s.SpawnAt(at, id, func(p *Proc) {
				v, ok := q.Get(p)
				took(id, v, ok)
			})
		}
		s.Run()
		return log
	}
	want := run(func(int) bool { return false })
	if len(want) != 9 {
		t.Fatalf("processes: %v, want nine getters served", want)
	}
	for name, chain := range map[string]func(int) bool{
		"all":  func(int) bool { return true },
		"odd":  func(i int) bool { return i%2 == 1 },
		"even": func(i int) bool { return i%2 == 0 },
	} {
		if got := run(chain); !slices.Equal(got, want) {
			t.Errorf("%s as callbacks: %v\nall processes:   %v", name, got, want)
		}
	}
}

func TestAcquireThenKeepsFIFOWithProcesses(t *testing.T) {
	type user struct {
		id   string
		at   Time
		a, b int
		hold Duration
	}
	// Of every two users, chainsIn are callback chains. waited counts the
	// users whose first grant came later than they asked.
	run := func(chainsIn int) (log []string, waited int) {
		s := New()
		rng, pick := NewRand(18), NewRand(7)
		ra, rb := NewResource(s, "a", 3), NewResource(s, "b", 2)
		note := func(u *user, what string) {
			log = append(log, fmt.Sprintf("%s %s@%d a=%d b=%d", u.id, what, s.Now(), ra.InUse(), rb.InUse()))
			if what == "a" && s.Now() > u.at {
				waited++
			}
		}
		var gotA, gotB, done func(any)
		gotA = func(arg any) {
			u := arg.(*user)
			note(u, "a")
			rb.AcquireThen(u.b, gotB, u)
		}
		gotB = func(arg any) {
			u := arg.(*user)
			note(u, "b")
			s.AtArg(s.Now()+Time(u.hold), done, u)
		}
		done = func(arg any) {
			u := arg.(*user)
			rb.Release(u.b)
			ra.Release(u.a)
			note(u, "done")
		}
		for i := 0; i < 300; i++ {
			u := &user{id: fmt.Sprintf("u%d", i), at: Time(rng.Intn(150)), a: 1 + rng.Intn(3), b: 1 + rng.Intn(2),
				hold: Duration(rng.Intn(4))}
			if pick.Intn(2) < chainsIn {
				s.AtArg(u.at, func(arg any) { ra.AcquireThen(u.a, gotA, arg) }, u)
				continue
			}
			s.SpawnAt(u.at, u.id, func(p *Proc) {
				ra.Acquire(p, u.a)
				note(u, "a")
				rb.Acquire(p, u.b)
				note(u, "b")
				p.Sleep(u.hold)
				rb.Release(u.b)
				ra.Release(u.a)
				note(u, "done")
			})
		}
		s.Run()
		return log, waited
	}
	procs, waited := run(0)
	if len(procs) != 900 || waited < 100 {
		t.Fatalf("schedule too small to mean anything: %d entries, %d users waited", len(procs), waited)
	}
	for chainsIn, name := range map[int]string{1: "mixed", 2: "all callbacks"} {
		got, _ := run(chainsIn)
		if len(got) != len(procs) {
			t.Fatalf("%s: %d entries, %d as processes", name, len(got), len(procs))
		}
		for i := range procs {
			if procs[i] != got[i] {
				t.Fatalf("%s: diverges at entry %d: %s as processes, %s here", name, i, procs[i], got[i])
			}
		}
	}
}

// TestCarriersAreReused: processes that run one after another share one
// coroutine, so a long chain of short-lived spawns neither grows the
// goroutine count during the run nor leaves anything behind after it.
func TestCarriersAreReused(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	const spawns = 10000
	peak := 0
	var chain func(n int) func(*Proc)
	chain = func(n int) func(*Proc) {
		return func(p *Proc) {
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			p.Sleep(time.Nanosecond)
			if n > 1 {
				s.Spawn("link", chain(n-1))
			}
		}
	}
	s.Spawn("link", chain(spawns))
	s.Run()
	// Each link spawns its successor before returning, so two are alive at
	// the hand-over: two carriers, however long the chain.
	if peak > before+2 {
		t.Errorf("goroutines grew during the run: %d before, peak %d over %d spawns", before, peak, spawns)
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}
