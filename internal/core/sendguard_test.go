package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/ibsim"
	"repro/internal/rpcrdma"
)

// guardSend is the fabric's test hook, shown every Send as it is posted and
// every completion as its consumer takes it.
//
//go:linkname guardSend repro/internal/ibsim.guardSend
var guardSend func(q *ibsim.QP, w *ibsim.SendWQE, c *ibsim.CQE)

// postedSend is a Send payload as it was posted, and who posted it.
type postedSend struct {
	payload []byte
	qp      *ibsim.QP
	wrid    uint64
}

// checkSend holds every Send to the rule that a posted buffer belongs to the
// fabric and is never written again. It copies each payload as it is posted,
// keyed by the buffer, and panics, naming the queue pair and work request, if
// the bytes differ when the receiver takes the Send's completion or when the
// buffer is posted again before then (a re-post would otherwise replace the
// copy it is checked against). Simulations run in parallel, hence the lock.
func checkSend() func(q *ibsim.QP, w *ibsim.SendWQE, c *ibsim.CQE) {
	var mu sync.Mutex
	posted := make(map[*byte]postedSend)
	check := func(key *byte, payload []byte, take bool) {
		ps, ok := posted[key]
		if ok && !bytes.Equal(payload, ps.payload) {
			panic(fmt.Sprintf("ibsim: Send WRID %d on %s QPN %d was written after it was posted", ps.wrid, ps.qp.Node().Name(), ps.qp.QPN()))
		}
		if take {
			delete(posted, key)
		}
	}
	return func(q *ibsim.QP, w *ibsim.SendWQE, c *ibsim.CQE) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case w != nil && len(w.Payload) > 0:
			check(&w.Payload[0], w.Payload, false)
			posted[&w.Payload[0]] = postedSend{bytes.Clone(w.Payload), q, w.WRID}
		case c != nil && c.Op == ibsim.OpRecv && len(c.Payload) > 0:
			check(&c.Payload[0], c.Payload, true)
		}
	}
}

// TestPostedSendsAreImmutable holds the message path to the rule that a
// posted buffer belongs to the fabric: with the fabric checking every Send
// it runs the all-configurations differential, the replay tests, the
// recovery table (reconnects and replays, all three designs) and a chaos seed
// set. The first subtest shows the hook is wired: a Send written after it was
// posted panics at receipt.
func TestPostedSendsAreImmutable(t *testing.T) {
	guardSend = checkSend()
	defer func() { guardSend = nil }()
	t.Run("mutation is caught", func(t *testing.T) {
		sim := des.New()
		fab := ibsim.NewFabric(sim, false)
		a := fab.AddNode(ibsim.NodeConfig{Name: "a", Cores: 1})
		b := fab.AddNode(ibsim.NodeConfig{Name: "b", Cores: 1})
		sim.Spawn("t", func(p *des.Proc) {
			qa, qb := fab.Connect(a, b, ibsim.QPConfig{})
			qb.PostRecv(1, 64)
			payload := []byte("posted")
			qa.PostSend(&ibsim.SendWQE{WRID: 7, Op: ibsim.OpSend, Payload: payload})
			payload[0] = 'P'
			defer func() {
				if recover() == nil {
					t.Error("a Send written after it was posted was delivered without a panic")
				}
			}()
			qb.RecvCQ.Wait(p)
		})
		sim.Run()
	})
	t.Run("differential", core.TestDifferentialAllConfigurations)
	t.Run("replay", core.TestReplayFramesACopy)
	t.Run("recovery", func(t *testing.T) {
		var replays int64
		for _, pt := range experiments.RunRecovery(32).Points {
			if !pt.DataOK || pt.ServerWrites != pt.WritesIssued {
				t.Errorf("faults=%d design=%v: data ok %v, WRITEs executed %d of %d", pt.Faults, pt.Design, pt.DataOK, pt.ServerWrites, pt.WritesIssued)
			}
			replays += pt.Replays
		}
		if replays == 0 {
			t.Error("the recovery table replayed no call")
		}
	})
	t.Run("chaos", func(t *testing.T) {
		// The soak's configurations on seeds where a replay frames its call
		// while the first Send still waits in the server's receive queue, the
		// seeds' schedules armed in absolute time, where they were found.
		var crashes, replays int64
		for _, d := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
			for seed := uint64(47); seed <= 52; seed++ {
				for _, mux := range []bool{false, true} {
					sched := chaos.Generate(seed, chaos.GenConfig{Faults: 4, Clients: 2})
					cfg := chaos.Config{Config: core.Config{Seed: seed, Design: d, Multiplex: mux, Affinity: mux && seed%2 == 0}, Schedule: &sched}
					if mux || seed%2 == 0 {
						cfg.ServerShards = 2
					}
					res := chaos.Run(cfg)
					if res.Failed() {
						t.Errorf("seed=%d design=%v mux=%v: %v %v", seed, d, mux, res.Violations, res.InvariantViolations)
					}
					crashes += res.Crashes
					replays += res.Replays
				}
			}
		}
		if crashes == 0 || replays == 0 {
			t.Errorf("the seed set crashed the server %d times and replayed %d calls", crashes, replays)
		}
	})
}
