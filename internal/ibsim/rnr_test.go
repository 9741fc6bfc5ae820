package ibsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/des"
)

// The RNR retry is a callback that re-arms itself one RNRRetryDelay later.
// These tests walk it through every attempt: to the limit with no receive
// ever posted, and to a delivery when the receive shows up mid-way — on a
// dedicated connection and across a mux QP.

const (
	rnrDelay = 50 * time.Microsecond
	rnrLimit = 3
)

// sendIntoRNR posts one send from q on stream and returns its completion,
// the virtual time the completion took, and the RNR count it added.
func sendIntoRNR(sim *des.Sim, fab *Fabric, q *QP, stream uint32) (cqe *CQE, took des.Duration, rnrs int64) {
	before := fab.Counters.Get("rnr")
	sim.Spawn("sender", func(p *des.Proc) {
		start := p.Now()
		cqe = q.PostAndWait(p, &SendWQE{WRID: 1, Op: OpSend, Stream: stream, Payload: []byte("ping")})
		took = des.Duration(p.Now() - start)
	})
	sim.Run()
	return cqe, took, fab.Counters.Get("rnr") - before
}

func rnrPair() (*des.Sim, *Fabric, *QP, *QP) {
	sim := des.New()
	fab := NewFabric(sim, true)
	a := fab.AddNode(NodeConfig{Name: "client"})
	b := fab.AddNode(NodeConfig{Name: "server"})
	qa, qb := fab.Connect(a, b, QPConfig{RNRRetryDelay: rnrDelay, RNRRetryLimit: rnrLimit})
	return sim, fab, qa, qb
}

func rnrMux() (*des.Sim, *Fabric, *QP, []*QP) {
	sim := des.New()
	fab := NewFabric(sim, true)
	srv := fab.AddNode(NodeConfig{Name: "server"})
	mqp := fab.NewMuxQP(srv, QPConfig{RNRRetryDelay: rnrDelay, RNRRetryLimit: rnrLimit})
	var eps []*QP
	for i := 0; i < 2; i++ {
		ep, err := fab.AttachEndpoint(fab.AddNode(NodeConfig{Name: "client"}), mqp, QPConfig{})
		if err != nil {
			panic(err)
		}
		eps = append(eps, ep)
	}
	return sim, fab, mqp, eps
}

func TestRNRRetriesToTheLimit(t *testing.T) {
	check := func(t *testing.T, cqe *CQE, took des.Duration, rnrs int64) {
		t.Helper()
		if cqe == nil || !errors.Is(cqe.Err, ErrRNR) {
			t.Fatalf("completion = %+v, want ErrRNR", cqe)
		}
		// Attempts 0..limit each find no receive; limit retry delays pass.
		if rnrs != rnrLimit+1 {
			t.Errorf("rnr counted %d times, want %d", rnrs, rnrLimit+1)
		}
		if took < rnrLimit*rnrDelay || took >= (rnrLimit+1)*rnrDelay {
			t.Errorf("completed after %v, want %d retry delays of %v", took, rnrLimit, rnrDelay)
		}
	}
	t.Run("connection", func(t *testing.T) {
		sim, fab, qa, qb := rnrPair()
		cqe, took, rnrs := sendIntoRNR(sim, fab, qa, 0)
		check(t, cqe, took, rnrs)
		if qa.Err() == nil || qb.Err() == nil {
			t.Errorf("RNR exhaustion must kill the connection: sender err %v, receiver err %v", qa.Err(), qb.Err())
		}
	})
	t.Run("mux", func(t *testing.T) {
		sim, fab, mqp, eps := rnrMux()
		cqe, took, rnrs := sendIntoRNR(sim, fab, mqp, eps[0].Stream())
		check(t, cqe, took, rnrs)
		if eps[0].Err() == nil {
			t.Error("the endpoint that posted no receive stayed healthy")
		}
		if mqp.Err() != nil || eps[1].Err() != nil {
			t.Errorf("RNR exhaustion on one endpoint spread: shared qp err %v, sibling err %v", mqp.Err(), eps[1].Err())
		}
	})
}

func TestRNRRetryDeliversOnceReceivePosted(t *testing.T) {
	// The receive is posted between retry 1 and retry 2.
	postAt := des.Time(rnrDelay + rnrDelay/2)
	check := func(t *testing.T, cqe *CQE, rnrs int64, rcq *CQ) {
		t.Helper()
		if cqe == nil || cqe.Err != nil {
			t.Fatalf("completion = %+v, want success", cqe)
		}
		if rnrs != 2 {
			t.Errorf("rnr counted %d times, want 2 (attempts 0 and 1)", rnrs)
		}
		if got, ok := rcq.Poll(); !ok || string(got.Payload) != "ping" {
			t.Errorf("receiver completion = %+v, want the payload", got)
		}
	}
	t.Run("connection", func(t *testing.T) {
		sim, fab, qa, qb := rnrPair()
		sim.At(postAt, func() { qb.PostRecv(7, 64) })
		cqe, _, rnrs := sendIntoRNR(sim, fab, qa, 0)
		check(t, cqe, rnrs, qb.RecvCQ)
	})
	t.Run("mux", func(t *testing.T) {
		sim, fab, mqp, eps := rnrMux()
		sim.At(postAt, func() { eps[0].PostRecv(7, 64) })
		cqe, _, rnrs := sendIntoRNR(sim, fab, mqp, eps[0].Stream())
		check(t, cqe, rnrs, eps[0].RecvCQ)
	})
}
