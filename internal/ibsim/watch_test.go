package ibsim

import (
	"testing"
	"time"

	"repro/internal/des"
)

// postWrite posts one RDMA Write from qa into mr at the given offset and
// waits for its completion.
func postWrite(p *des.Proc, qa *QP, src *Buffer, mr *MR, off uint64, n int) {
	cqe := qa.PostAndWait(p, &SendWQE{
		WRID: 1, Op: OpWrite,
		Local:     []LocalSeg{{Buf: src, Off: 0, Len: n}},
		RemoteKey: mr.Rkey(), RemoteAddr: mr.Start() + off,
	})
	if cqe.Err != nil {
		panic(cqe.Err)
	}
}

// counter is a watch callback that counts its firings.
func counter(a any) { *a.(*int)++ }

// TestWatchWriteFiresOnOverlap: a watch on the doorbell range fires exactly
// when a delivered Write overlaps it, after the data is placed, and before
// the writer sees its completion.
func TestWatchWriteFiresOnOverlap(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(64)
	dst := b.Mem.Alloc(4096)
	fill(src, 5)
	var w WriteWatch
	var sawData bool
	var firedAt, completedAt des.Time
	sim.Spawn("writer", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
		b.HCA.WatchWrite(&w, mr.Rkey(), mr.Start(), 8, func(any) {
			firedAt = sim.Now()
			sawData = dst.Bytes(0, 1)[0] == src.Bytes(0, 1)[0]
		}, nil)
		postWrite(p, qa, src, mr, 0, 64)
		completedAt = p.Now()
	})
	sim.Run()
	if firedAt == 0 || firedAt > completedAt {
		t.Fatalf("watch fired at %v, write completed at %v", firedAt, completedAt)
	}
	if !sawData {
		t.Fatal("watch fired before the write's data was visible")
	}
	if n := b.HCA.Watches(); n != 0 {
		t.Errorf("%d watches armed after the watch fired", n)
	}
}

// TestWatchWriteIgnoresNonOverlap: a Write outside the watched range must
// not fire the watch; Cancel then disarms it without firing it.
func TestWatchWriteIgnoresNonOverlap(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(64)
	dst := b.Mem.Alloc(4096)
	var w WriteWatch
	fired := 0
	sim.Spawn("writer", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
		b.HCA.WatchWrite(&w, mr.Rkey(), mr.Start(), 8, counter, &fired) // watch [0, 8)
		postWrite(p, qa, src, mr, 1024, 64)                             // lands at [1024, 1088)
		if n := b.HCA.Watches(); n != 1 {
			t.Errorf("%d watches armed, want the untouched one", n)
		}
		w.Cancel()
		w.Cancel() // a disarmed watch cancels as a no-op
	})
	sim.Run()
	if fired != 0 {
		t.Error("a non-overlapping write or Cancel fired the watch")
	}
	if n := b.HCA.Watches(); n != 0 {
		t.Errorf("%d watches armed after Cancel", n)
	}
}

// TestWatchWriteFiresOnce: after firing, the watch is disarmed — a second
// overlapping Write must not fire it again — and arming the same storage
// again sees the next Write.
func TestWatchWriteFiresOnce(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(64)
	dst := b.Mem.Alloc(4096)
	var w WriteWatch
	fired := 0
	sim.Spawn("writer", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
		b.HCA.WatchWrite(&w, mr.Rkey(), mr.Start(), 8, counter, &fired)
		postWrite(p, qa, src, mr, 0, 64)
		postWrite(p, qa, src, mr, 0, 64)
		if fired != 1 {
			t.Errorf("fired %d times over two writes, want once", fired)
		}
		if len(b.HCA.watches) != 0 {
			t.Errorf("fired watch still registered: %v", b.HCA.watches)
		}
		b.HCA.WatchWrite(&w, mr.Rkey(), mr.Start(), 8, counter, &fired)
		p.Sleep(time.Microsecond)
		postWrite(p, qa, src, mr, 4, 64)
	})
	sim.Run()
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (one per arming)", fired)
	}
}

// TestWatchWriteMultipleWatchers: two watches on disjoint ranges of one
// region each fire only for their own range.
func TestWatchWriteMultipleWatchers(t *testing.T) {
	sim, _, a, b, qa, _ := testPair(t, true)
	src := a.Mem.Alloc(64)
	dst := b.Mem.Alloc(4096)
	var lo, hi WriteWatch
	loFired, hiFired := 0, 0
	sim.Spawn("writer", func(p *des.Proc) {
		mr := b.HCA.Register(p, dst, 0, 4096, AccessLocalWrite|AccessRemoteWrite)
		b.HCA.WatchWrite(&lo, mr.Rkey(), mr.Start(), 8, counter, &loFired)
		b.HCA.WatchWrite(&hi, mr.Rkey(), mr.Start()+2048, 8, counter, &hiFired)
		postWrite(p, qa, src, mr, 2048, 8) // hits hi only
		lo.Cancel()
	})
	sim.Run()
	if hiFired != 1 {
		t.Error("watch over the written range did not fire")
	}
	if loFired != 0 {
		t.Error("watch over the untouched range fired")
	}
	if n := b.HCA.Watches(); n != 0 {
		t.Errorf("%d watches armed after one fired and one was cancelled", n)
	}
}
