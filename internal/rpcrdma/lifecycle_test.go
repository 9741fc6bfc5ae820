package rpcrdma

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// When a connection dies, every reply parked for it awaiting RDMA_DONE must
// be released — in park order, idempotently — leaving the reply pool whole.
func TestConnDeathReleasesParkedReplies(t *testing.T) {
	newEnv(t, ReadRead, memreg.Regular, func(p *des.Proc, e *env) {
		e.ct.DropDone = true // withhold DONE: replies stay parked
		payload := pattern(32<<10, 9)
		if _, _, err := e.rpc.Call(p, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)}); err != nil {
			t.Fatalf("put: %v", err)
		}
		for i := 0; i < 3; i++ {
			dst := &oncrpc.Bulk{Data: make([]byte, 32<<10), Len: 32 << 10}
			if _, _, err := e.rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst}); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		if got := e.st.ParkedReplies(); got != 3 {
			t.Fatalf("ParkedReplies = %d before death, want 3", got)
		}
		e.ct.QP().InjectError(nil)
		p.Sleep(time.Millisecond) // let the receive loop observe and tear down
		if got := e.st.ParkedReplies(); got != 0 {
			t.Errorf("ParkedReplies = %d after death, want 0", got)
		}
		if got := e.st.replySlots.InUse(); got != 0 {
			t.Errorf("reply pool slots still held after death: %d", got)
		}
	})
}

// Tasks still sitting in the work queue when their connection dies must be
// dropped, not served: serving them would park replies nothing can release.
func TestConnDeathDropsQueuedTasks(t *testing.T) {
	newEnv(t, ReadWrite, memreg.Regular, func(p *des.Proc, e *env) {
		// 8 concurrent PUTs against 4 workers: 4 execute (blocked on their
		// chunk pulls when the fault hits), 4 wait in the queue.
		payload := pattern(256<<10, 3)
		done := des.NewEvent(e.sim)
		finished := 0
		for i := 0; i < 8; i++ {
			e.sim.Spawn("caller", func(cp *des.Proc) {
				e.rpc.Call(cp, 1, nil, oncrpc.CallOpts{SendBulk: oncrpc.NewBulk(payload)})
				if finished++; finished == 8 {
					done.Fire(nil)
				}
			})
		}
		p.Sleep(100 * time.Microsecond)
		e.ct.QP().InjectError(nil)
		done.Wait(p)
		p.Sleep(time.Millisecond)
		if e.st.TasksDropped == 0 {
			t.Errorf("TasksDropped = 0, want > 0 (queued tasks on a dead connection)")
		}
		if got := e.st.ParkedReplies(); got != 0 {
			t.Errorf("ParkedReplies = %d, want 0", got)
		}
	})
}
