package ibsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/des"
)

// TestCQWaitThenMatchesWait feeds one completion pattern to a CQ twice — a
// burst, a gap, a completion that arrives while the consumer is taking the
// interrupt of the one before, one whose interrupt waits for a busy core,
// then Close — and consumes it once with a process looping on Wait and once
// with a callback that polls what is queued before it waits again. Both
// must handle every completion at the same instant and take the same
// interrupts.
func TestCQWaitThenMatchesWait(t *testing.T) {
	type handled struct {
		at   des.Time
		wrid uint64
	}
	const us = des.Time(time.Microsecond)
	run := func(callback bool) ([]handled, int64, des.Time) {
		sim := des.New()
		fab := NewFabric(sim, false)
		n := fab.AddNode(NodeConfig{Name: "n", Cores: 1, InterruptCost: 5 * time.Microsecond})
		cq := NewCQ(n, "n/cq")
		var log []handled
		closedAt := des.Time(-1)
		post := func(at des.Time, wrid uint64) {
			sim.At(at, func() { cq.post(&CQE{WRID: wrid, Op: OpRecv}) })
		}
		for i := uint64(1); i <= 3; i++ {
			post(10*us, i) // a burst
		}
		post(50*us, 4) // after a gap
		post(52*us, 5) // while 4's interrupt is charged
		sim.SpawnAt(80*us, "hog", func(p *des.Proc) { n.CPU.Work(p, 20*time.Microsecond) })
		post(85*us, 6) // its interrupt waits for the core
		post(150*us, 7)
		sim.At(150*us, cq.Close) // 7 is drained after the close
		post(160*us, 8)          // dropped: the CQ is gone
		if callback {
			var consume func(any, *CQE)
			consume = func(_ any, c *CQE) {
				if c == nil {
					closedAt = sim.Now()
					return
				}
				for ok := true; ok; c, ok = cq.Poll() {
					log = append(log, handled{sim.Now(), c.WRID})
				}
				cq.WaitThen(consume, nil)
			}
			sim.At(0, func() { cq.WaitThen(consume, nil) })
		} else {
			sim.Spawn("consumer", func(p *des.Proc) {
				for {
					c := cq.Wait(p)
					if c == nil {
						closedAt = p.Now()
						return
					}
					log = append(log, handled{p.Now(), c.WRID})
				}
			})
		}
		sim.Run()
		return log, n.CPU.Interrupts(), closedAt
	}
	wantLog, wantIntr, wantClosed := run(false)
	gotLog, gotIntr, gotClosed := run(true)
	if len(wantLog) != 7 || wantIntr != 4 {
		t.Fatalf("the Wait loop handled %v with %d interrupts; the pattern should give 7 completions and 4 interrupts", wantLog, wantIntr)
	}
	if !slices.Equal(gotLog, wantLog) || gotIntr != wantIntr || gotClosed != wantClosed {
		t.Errorf("callback consumer: handled %v, %d interrupts, saw the close at %v\nWait loop:         handled %v, %d interrupts, saw the close at %v",
			gotLog, gotIntr, gotClosed, wantLog, wantIntr, wantClosed)
	}
}
