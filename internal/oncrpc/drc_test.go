package oncrpc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
)

// countingService counts executions so replays are visible.
type countingService struct{ calls int }

func (s *countingService) Name() string    { return "count" }
func (s *countingService) Program() uint32 { return 555 }
func (s *countingService) Version() uint32 { return 1 }
func (s *countingService) Handle(p *des.Proc, req *ServerRequest) ServerResponse {
	s.calls++
	req.Reply.Uint32(uint32(s.calls))
	return ServerResponse{Stat: Success}
}

func TestDRCReplaysWithoutReexecution(t *testing.T) {
	d := NewDispatcher()
	svc := &countingService{}
	d.Register(svc)
	d.EnableDRC(8)
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		hdr := &CallHeader{XID: 99, Prog: 555, Vers: 1, Proc: 1,
			Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
		raw := EncodeCall(hdr, nil)
		r1, _, err := d.Dispatch(p, raw, DispatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// Retransmit: identical bytes, must replay the SAME reply.
		r2, _, err := d.Dispatch(p, raw, DispatchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if svc.calls != 1 {
			t.Errorf("service executed %d times for a retransmission", svc.calls)
		}
		if string(r1) != string(r2) {
			t.Error("replayed reply differs from the original")
		}
		// A different XID executes normally.
		hdr.XID = 100
		d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
		if svc.calls != 2 {
			t.Errorf("calls = %d", svc.calls)
		}
		// A different client machine with the same XID is NOT a replay.
		hdr.Cred.Machine = "c1"
		d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
		if svc.calls != 3 {
			t.Errorf("cross-client xid collision replayed: calls = %d", svc.calls)
		}
		hits, misses := d.DRCStats()
		if hits != 1 || misses != 3 {
			t.Errorf("drc stats = %d/%d, want 1/3", hits, misses)
		}
	})
	sim.Run()
}

// TestDRCKeepsItsOwnCopy: a cached reply is an exact copy of the message
// (no room, no spare capacity) sharing no memory with the wire it was
// committed from — that wire is the transport's to post — so writing over
// the wire changes no replay, and a hit returns a fresh message behind the
// room asked for.
func TestDRCKeepsItsOwnCopy(t *testing.T) {
	d := NewDispatcher()
	svc := &countingService{}
	d.Register(svc)
	d.EnableDRC(8)
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		hdr := &CallHeader{XID: 5, Prog: 555, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
		raw := EncodeCall(hdr, nil)
		const room, hitRoom = 44, 16
		wire, _, err := d.Dispatch(p, raw, DispatchOpts{Room: room})
		if err != nil {
			t.Fatal(err)
		}
		msg := append([]byte(nil), wire[room:]...)
		e := d.drc.clients["c0"].entries[clientKey{xid: 5, prog: 555, proc: 1}]
		if !bytes.Equal(e.reply, msg) || cap(e.reply) != len(e.reply) {
			t.Fatalf("cached reply: %d bytes of capacity %d, equal to the message %v", len(e.reply), cap(e.reply), bytes.Equal(e.reply, msg))
		}
		wire = wire[:cap(wire)]
		for i := range wire {
			wire[i] = 0xff
		}
		hit, _, err := d.Dispatch(p, raw, DispatchOpts{Room: hitRoom})
		if err != nil || svc.calls != 1 {
			t.Fatalf("retransmission: err %v, executions %d", err, svc.calls)
		}
		if !bytes.Equal(hit[hitRoom:], msg) || !bytes.Equal(hit[:hitRoom], make([]byte, hitRoom)) {
			t.Errorf("replay = %x, want %d zero bytes and then %x", hit, hitRoom, msg)
		}
	})
	sim.Run()
}

// slowService executes for a fixed virtual duration, so a test can land a
// retransmission while the original call is still inside the handler.
type slowService struct {
	calls int
	delay time.Duration
}

func (s *slowService) Name() string    { return "slow" }
func (s *slowService) Program() uint32 { return 556 }
func (s *slowService) Version() uint32 { return 1 }
func (s *slowService) Handle(p *des.Proc, req *ServerRequest) ServerResponse {
	s.calls++
	p.Sleep(s.delay)
	req.Reply.Uint32(uint32(s.calls))
	return ServerResponse{Stat: Success}
}

func TestDRCSuppressesDuplicateWhileExecuting(t *testing.T) {
	d := NewDispatcher()
	svc := &slowService{delay: time.Millisecond}
	d.Register(svc)
	d.EnableDRC(8)
	sim := des.New()
	hdr := &CallHeader{XID: 42, Prog: 556, Vers: 1, Proc: 1,
		Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
	raw := EncodeCall(hdr, nil)
	sim.Spawn("original", func(p *des.Proc) {
		reply, _, err := d.Dispatch(p, raw, DispatchOpts{})
		if err != nil || reply == nil {
			t.Errorf("original call failed: reply=%v err=%v", reply, err)
		}
	})
	sim.SpawnAt(des.Time(100*time.Microsecond), "retransmit", func(p *des.Proc) {
		reply, bulk, err := d.Dispatch(p, raw, DispatchOpts{})
		if reply != nil || bulk != nil || err != nil {
			t.Errorf("mid-execution duplicate should drop silently, got reply=%v bulk=%v err=%v", reply, bulk, err)
		}
	})
	sim.SpawnAt(des.Time(5*time.Millisecond), "late-retransmit", func(p *des.Proc) {
		reply, _, err := d.Dispatch(p, raw, DispatchOpts{})
		if err != nil || string(reply) == "" {
			t.Errorf("post-completion duplicate should replay, got %v/%v", reply, err)
		}
	})
	sim.Run()
	if svc.calls != 1 {
		t.Errorf("service executed %d times, want 1", svc.calls)
	}
	if d.DRCInProgressDrops() != 1 {
		t.Errorf("InProgressDrops = %d, want 1", d.DRCInProgressDrops())
	}
}

// classifierService caches only proc 7 (its sole non-idempotent procedure).
type classifierService struct{ calls [10]int }

func (s *classifierService) Name() string                { return "classified" }
func (s *classifierService) Program() uint32             { return 557 }
func (s *classifierService) Version() uint32             { return 1 }
func (s *classifierService) NonIdempotent(p uint32) bool { return p == 7 }
func (s *classifierService) Handle(p *des.Proc, req *ServerRequest) ServerResponse {
	s.calls[req.Header.Proc]++
	return ServerResponse{Stat: Success}
}

func TestDRCHonorsIdempotencyClassifier(t *testing.T) {
	d := NewDispatcher()
	svc := &classifierService{}
	d.Register(svc)
	d.EnableDRC(8)
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		hdr := &CallHeader{XID: 1, Prog: 557, Vers: 1, Proc: 7,
			Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
		raw := EncodeCall(hdr, nil)
		d.Dispatch(p, raw, DispatchOpts{})
		d.Dispatch(p, raw, DispatchOpts{})
		if svc.calls[7] != 1 {
			t.Errorf("non-idempotent proc re-executed: %d", svc.calls[7])
		}
		hdr.Proc = 6 // idempotent: replays re-execute, harmlessly
		raw = EncodeCall(hdr, nil)
		d.Dispatch(p, raw, DispatchOpts{})
		d.Dispatch(p, raw, DispatchOpts{})
		if svc.calls[6] != 2 {
			t.Errorf("idempotent proc should re-execute: %d", svc.calls[6])
		}
	})
	sim.Run()
}

// Each client machine gets its own bounded window: one client churning
// through XIDs must not evict another client's cached replies.
func TestDRCPerClientBounds(t *testing.T) {
	d := NewDispatcher()
	svc := &countingService{}
	d.Register(svc)
	d.EnableDRC(4)
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		a := &CallHeader{XID: 1, Prog: 555, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "a"}}
		d.Dispatch(p, EncodeCall(a, nil), DispatchOpts{})
		// Client b floods far past the per-client capacity.
		b := &CallHeader{Prog: 555, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "b"}}
		for xid := uint32(1); xid <= 20; xid++ {
			b.XID = xid
			d.Dispatch(p, EncodeCall(b, nil), DispatchOpts{})
		}
		// Client a's entry survived b's churn.
		before := svc.calls
		d.Dispatch(p, EncodeCall(a, nil), DispatchOpts{})
		if svc.calls != before {
			t.Error("client a's cached reply was evicted by client b's traffic")
		}
	})
	sim.Run()
}

// TestDRCEvictSkipsExecutingHead covers eviction when the FIFO head is an
// executing placeholder: the single forward pass must skip it (an executing
// entry is never evicted), remove completed entries beyond it, and leave
// order and entries consistent.
func TestDRCEvictSkipsExecutingHead(t *testing.T) {
	cl := &drcClient{entries: make(map[clientKey]*drcEntry)}
	add := func(xid uint32, executing bool) {
		k := clientKey{xid: xid, prog: 1, proc: 1}
		cl.entries[k] = &drcEntry{key: k, executing: executing}
		cl.order = append(cl.order, k)
	}
	add(1, true) // head: in flight, must survive
	add(2, false)
	add(3, false)
	add(4, false)
	cl.evict(2)
	if len(cl.entries) != 2 || len(cl.order) != 2 {
		t.Fatalf("entries=%d order=%d, want 2/2", len(cl.entries), len(cl.order))
	}
	if _, ok := cl.entries[clientKey{xid: 1, prog: 1, proc: 1}]; !ok {
		t.Fatal("executing head was evicted")
	}
	if _, ok := cl.entries[clientKey{xid: 4, prog: 1, proc: 1}]; !ok {
		t.Fatal("newest completed entry was evicted before older ones")
	}
	for _, k := range cl.order {
		if _, ok := cl.entries[k]; !ok {
			t.Fatalf("order holds evicted key %+v", k)
		}
	}
	// All-executing window: eviction tolerates transient over-capacity.
	cl2 := &drcClient{entries: make(map[clientKey]*drcEntry)}
	for xid := uint32(1); xid <= 3; xid++ {
		k := clientKey{xid: xid, prog: 1, proc: 1}
		cl2.entries[k] = &drcEntry{key: k, executing: true}
		cl2.order = append(cl2.order, k)
	}
	cl2.evict(1)
	if len(cl2.entries) != 3 || len(cl2.order) != 3 {
		t.Fatalf("all-executing window shrank: entries=%d order=%d", len(cl2.entries), len(cl2.order))
	}
}

// TestDRCEvictionAroundExecutingCall drives the same scenario through the
// dispatcher: a slow call holds the FIFO head as an executing placeholder
// while fast traffic churns the window past capacity. The churn must evict
// only completed entries, and the slow call must still replay afterwards.
func TestDRCEvictionAroundExecutingCall(t *testing.T) {
	d := NewDispatcher()
	slow := &slowService{delay: time.Millisecond}
	fast := &countingService{}
	d.Register(slow)
	d.Register(fast)
	d.EnableDRC(2)
	sim := des.New()
	slowHdr := &CallHeader{XID: 1, Prog: 556, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
	slowRaw := EncodeCall(slowHdr, nil)
	sim.Spawn("original", func(p *des.Proc) {
		if reply, _, err := d.Dispatch(p, slowRaw, DispatchOpts{}); err != nil || reply == nil {
			t.Errorf("original slow call: reply=%v err=%v", reply, err)
		}
	})
	sim.SpawnAt(des.Time(100*time.Microsecond), "churn", func(p *des.Proc) {
		hdr := &CallHeader{Prog: 555, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
		for xid := uint32(2); xid <= 6; xid++ {
			hdr.XID = xid
			d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
		}
	})
	sim.SpawnAt(des.Time(5*time.Millisecond), "retransmit", func(p *des.Proc) {
		if reply, _, err := d.Dispatch(p, slowRaw, DispatchOpts{}); err != nil || reply == nil {
			t.Errorf("slow call should replay after churn: reply=%v err=%v", reply, err)
		}
	})
	sim.Run()
	if slow.calls != 1 {
		t.Errorf("slow call executed %d times, want 1 (placeholder evicted by churn?)", slow.calls)
	}
}

// TestDRCCrashMidExecution is the regression test for commit resurrecting
// wiped clients: DropDRC (the server crash path) wipes every client window
// while a call is still inside its handler; the commit on handler return
// used to go through the creating client() accessor and rebuild an empty
// drcClient for the wiped machine — a silent map leak that nothing ever
// removes, skewing the client count. Post-fix, no empty window may linger.
func TestDRCCrashMidExecution(t *testing.T) {
	d := NewDispatcher()
	svc := &slowService{delay: time.Millisecond}
	d.Register(svc)
	d.EnableDRC(8)
	sim := des.New()
	hdr := &CallHeader{XID: 7, Prog: 556, Vers: 1, Proc: 1,
		Cred: Auth{Flavor: AuthSys, Machine: "c0"}}
	raw := EncodeCall(hdr, nil)
	sim.Spawn("original", func(p *des.Proc) {
		d.Dispatch(p, raw, DispatchOpts{}) // handler runs until t=1ms
	})
	sim.SpawnAt(des.Time(100*time.Microsecond), "crash", func(p *des.Proc) {
		d.DropDRC() // crash wipes the windows mid-execution
		if n := d.DRCClients(); n != 0 {
			t.Errorf("DropDRC left %d client windows", n)
		}
	})
	sim.Run()
	// The handler returned after the wipe; its commit must not have
	// recreated the client's (now empty) window.
	if n := d.DRCClients(); n != 0 {
		t.Errorf("commit resurrected %d wiped client window(s)", n)
	}
	if n := d.DRCEntries(); n != 0 {
		t.Errorf("wiped entries linger: %d", n)
	}
	// The machine is live again as soon as it issues a fresh call.
	sim2 := des.New()
	sim2.Spawn("fresh", func(p *des.Proc) {
		if _, _, err := d.Dispatch(p, raw, DispatchOpts{}); err != nil {
			t.Errorf("post-crash dispatch failed: %v", err)
		}
	})
	sim2.Run()
	if n := d.DRCClients(); n != 1 {
		t.Errorf("fresh call after crash should rebuild the window: clients=%d", n)
	}
}

func TestDRCBounded(t *testing.T) {
	d := NewDispatcher()
	svc := &countingService{}
	d.Register(svc)
	d.EnableDRC(4)
	sim := des.New()
	sim.Spawn("t", func(p *des.Proc) {
		hdr := &CallHeader{Prog: 555, Vers: 1, Proc: 1, Cred: Auth{Flavor: AuthSys, Machine: "c"}}
		for xid := uint32(1); xid <= 10; xid++ {
			hdr.XID = xid
			d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
		}
		// XID 1 was evicted: re-dispatching executes again (a real server
		// accepts this window; the cache is bounded by design).
		hdr.XID = 1
		before := svc.calls
		d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
		if svc.calls != before+1 {
			t.Error("evicted entry should re-execute")
		}
		// XID 10 is still cached.
		hdr.XID = 10
		before = svc.calls
		d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
		if svc.calls != before {
			t.Error("recent entry should replay")
		}
	})
	sim.Run()
}

// walkEntries is DRCEntries as it was computed before the count was kept at
// the mutation sites: a sum over every client's window. It is the reference
// the maintained count is held to.
func (c *drc) walkEntries() int {
	n := 0
	for _, cl := range c.clients {
		n += len(cl.entries)
	}
	return n
}

// TestDRCEntriesEqualsWalk drives a seeded mix through the dispatcher —
// fresh calls and retransmissions from five clients against three-entry
// windows, so eviction runs constantly; slow calls whose executing
// placeholders sit at the FIFO head and pin windows over capacity; crash
// wipes that land while those calls are still executing, so their commits
// race the wipe — and after every step holds the maintained entry count to
// a walk over the windows. A wipe leaves exactly zero.
func TestDRCEntriesEqualsWalk(t *testing.T) {
	d := NewDispatcher()
	d.Register(&slowService{delay: 50 * time.Microsecond})
	d.Register(&countingService{})
	d.EnableDRC(3)
	sim := des.New()
	rng := des.NewRand(16)
	check := func(when string) {
		t.Helper()
		if got, want := d.DRCEntries(), d.drc.walkEntries(); got != want {
			t.Fatalf("%s: DRCEntries() = %d, walk = %d", when, got, want)
		}
	}
	wipes := 0
	sim.Spawn("driver", func(p *des.Proc) {
		for step := 0; step < 4000; step++ {
			hdr := &CallHeader{
				XID: uint32(rng.Intn(12)), Prog: 555, Vers: 1, Proc: 1,
				Cred: Auth{Flavor: AuthSys, Machine: fmt.Sprintf("c%d", rng.Intn(5))},
			}
			switch r := rng.Intn(100); {
			case r < 2:
				d.DropDRC()
				wipes++
				if d.DRCEntries() != 0 {
					t.Fatalf("DRCEntries() = %d right after DropDRC", d.DRCEntries())
				}
			case r < 30:
				hdr.Prog = 556 // slow: stays an executing placeholder for 50µs
				raw := EncodeCall(hdr, nil)
				sim.Spawn("slow-call", func(sp *des.Proc) {
					d.Dispatch(sp, raw, DispatchOpts{})
					check("after a slow call committed")
				})
			default:
				d.Dispatch(p, EncodeCall(hdr, nil), DispatchOpts{})
			}
			check("after a step")
			p.Sleep(des.Duration(rng.Intn(10)) * time.Microsecond)
		}
		p.Sleep(time.Millisecond)
		check("drained")
		d.DropDRC()
		if d.DRCEntries() != 0 || d.drc.walkEntries() != 0 {
			t.Fatalf("after the last wipe: count %d, walk %d", d.DRCEntries(), d.drc.walkEntries())
		}
	})
	sim.Run()
	h, m := d.DRCStats()
	if wipes == 0 || h == 0 || d.DRCInProgressDrops() == 0 {
		t.Errorf("scenario too tame: wipes=%d hits=%d misses=%d in-progress drops=%d", wipes, h, m, d.DRCInProgressDrops())
	}
}
