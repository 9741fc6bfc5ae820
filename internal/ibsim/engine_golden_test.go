package ibsim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_golden.txt from this build's output")

// engineGolden drives the fabric through a seeded schedule built to hit what
// no benchmark workload does — same-instant posts on QPs sharing ports, more
// Reads than ORD slots, RNR retries that recover and that run to the limit,
// a QP error with WQEs on the wire, Close with WQEs queued, posts after
// close and before the engine's first event, stale mux streams — and logs
// every completion in the order software
// sees it, then the busy-seconds of every port and ORD resource. Every time
// in it is a multiple of 500 ns (1 or 2 ns per byte, sizes in multiples of
// 500 B, posts on whole microseconds; a Read request adds 16 or 32 ns), so
// the fabric's events keep landing on the same instant and their order there
// decides who gets a port first. Interrupts cost nothing, so a drainer logs a
// CQE at the instant it was posted, same-instant lines in post order: the
// log pins port-grant order in ties.
func engineGolden() string {
	var b strings.Builder
	sim := des.New()
	fab := NewFabric(sim, false)
	rng := des.NewRand(18)
	node := func(name string, bw float64) *Node {
		return fab.AddNode(NodeConfig{Name: name, PortBandwidth: bw, PortLatency: 2 * time.Microsecond,
			MaxORD: 2, WQEOverhead: 500 * time.Nanosecond, ReadResponseOverhead: time.Microsecond})
	}
	srv := node("srv", 1e9)
	clients := []*Node{node("c0", 1e9), node("c1", 5e8), node("c2", 1e9)}
	qcfg := QPConfig{RNRRetryDelay: 20 * time.Microsecond, RNRRetryLimit: 3}

	type end struct {
		qp     *QP
		stream uint32 // what a post from this end addresses (mux side only)
		peer   *Node  // where its Writes and Reads land
	}
	// Three connections — c0–srv, c1–srv, c2–c0 — and a mux QP on srv with
	// endpoints on c1 and c2: every node's ports serve at least two QPs, and
	// what waits for a port is not always headed where its holder was.
	var ends []*end
	for _, pair := range [][2]*Node{{clients[0], srv}, {clients[1], srv}, {clients[2], clients[0]}} {
		qa, qb := fab.Connect(pair[0], pair[1], qcfg)
		ends = append(ends, &end{qp: qa, peer: pair[1]}, &end{qp: qb, peer: pair[0]})
	}
	mux := fab.NewMuxQP(srv, qcfg)
	for _, c := range clients[1:] {
		ep, err := fab.AttachEndpoint(c, mux, qcfg)
		if err != nil {
			panic(err)
		}
		ends = append(ends, &end{qp: ep, peer: srv}, &end{qp: mux, stream: ep.Stream(), peer: c})
	}

	// One remotely readable and writable region per node, one local buffer.
	const region = 64000
	mrs, local := map[*Node]*MR{}, map[*Node]*Buffer{}
	sim.Spawn("setup", func(p *des.Proc) {
		for _, n := range append([]*Node{srv}, clients...) {
			mrs[n] = n.HCA.Register(p, n.Mem.Alloc(region), 0, region, AccessLocalWrite|AccessRemoteRead|AccessRemoteWrite)
			local[n] = n.Mem.Alloc(region)
		}
	})

	logCQE := func(cq string, c *CQE) {
		errs := "-"
		if c.Err != nil {
			errs = c.Err.Error()
		}
		fmt.Fprintf(&b, "%d %s wrid=%d %v bytes=%d stream=%#x src=%#x err=%s\n",
			int64(sim.Now()), cq, c.WRID, c.Op, c.Bytes, c.Stream, c.SrcStream, errs)
	}
	// Drainers: one per CQ. Receive drainers repost, sometimes late (RNR
	// retries that recover); starve[q] stops one for good (retries to the
	// limit).
	starve := map[*QP]bool{}
	drained := map[*CQ]bool{}
	drain := func(name string, q *QP, cq *CQ, recv bool) {
		if drained[cq] {
			return
		}
		drained[cq] = true
		lag := des.NewRand(uint64(len(drained)))
		sim.Spawn("drain-"+name, func(p *des.Proc) {
			for {
				c := cq.Wait(p)
				if c == nil {
					return
				}
				logCQE(name, c)
				if !recv || c.Err != nil || starve[q] {
					continue
				}
				if lag.Intn(4) == 0 {
					p.Sleep(des.Duration(lag.Intn(50)) * time.Microsecond)
				}
				q.PostRecv(c.WRID, 1024)
			}
		})
	}
	for _, e := range ends {
		for i := 0; i < 3; i++ {
			if !drained[e.qp.RecvCQ] {
				e.qp.PostRecv(uint64(i), 1024)
			}
		}
		drain(e.qp.track+"/r", e.qp, e.qp.RecvCQ, true)
		drain(e.qp.track+"/s", e.qp, e.qp.SendCQ, false)
	}

	us := func(n int) des.Time { return des.Time(n) * des.Time(time.Microsecond) }
	wrid := uint64(100)
	post := func(e *end, op Opcode, size int, signaled bool) {
		wrid++
		w := &SendWQE{WRID: wrid, Op: op, Signaled: signaled, Stream: e.stream}
		if op == OpSend {
			w.Payload = make([]byte, size)
		} else {
			n := e.qp.node
			w.Local = []LocalSeg{{Buf: local[n], Len: size}}
			w.RemoteKey, w.RemoteAddr = mrs[e.peer].Rkey(), mrs[e.peer].Start()
		}
		e.qp.PostSend(w)
	}
	// Posts at connect time, last QP first: the engines' start events are
	// already scheduled, in connect order, and that is the order they run in.
	for i := len(ends) - 1; i >= 0; i-- {
		post(ends[i], OpSend, 500, true)
	}
	// A post on an idle engine at the instant the node's other engine comes
	// off the wire with more queued: the busy one was first and launches first.
	sim.At(us(20), func() { post(ends[0], OpWrite, 2000, true); post(ends[0], OpWrite, 2000, true) })
	sim.At(us(22)+500, func() { post(ends[5], OpWrite, 1000, true) })
	// The schedule: 5 µs slots, so several QPs often post at the same
	// instant, and bursts of up to 5, so Reads outrun the 2 ORD slots.
	ops := []Opcode{OpSend, OpSend, OpWrite, OpRead, OpRead}
	sizes := []int{500, 500, 1000, 2000, 8000, 16000}
	for i := 0; i < 150; i++ {
		at := us(100 + 5*rng.Intn(600))
		e := ends[rng.Intn(len(ends))]
		for n := 1 + rng.Intn(5); n > 0; n-- {
			op := ops[rng.Intn(len(ops))]
			size := sizes[rng.Intn(len(sizes))]
			if op == OpSend {
				size = sizes[rng.Intn(3)]
			}
			signaled := rng.Intn(8) != 0
			sim.At(at, func() { post(e, op, size, signaled) })
		}
	}
	// Storms: every end posts the same three requests at the same instant, so
	// equal transfers wait for both ports of the server at once.
	for _, at := range []int{400, 1200, 2000, 2800} {
		for _, e := range ends {
			sim.At(us(at), func() {
				post(e, OpWrite, 1000, true)
				post(e, OpSend, 500, true)
				post(e, OpRead, 2000, true)
			})
		}
	}
	// The endings, from 3.3 ms: one per connection and two on the mux QP.
	burst := func(at des.Time, e *end, op Opcode, size, n int) {
		sim.At(at, func() {
			for i := 0; i < n; i++ {
				post(e, op, size, true)
			}
		})
	}
	c0, s0, c1, s1, c2, s2 := ends[0], ends[1], ends[2], ends[3], ends[4], ends[5] // s2 is c0's end of c2–c0
	ep0, mux0, ep1, mux1 := ends[6], ends[7], ends[8], ends[9]
	// c0: Close with WQEs queued behind one on the wire, then a post after close.
	burst(us(3300), c0, OpWrite, 64000, 4)
	burst(us(3300), s0, OpRead, 32000, 3)
	sim.At(us(3320), func() { c0.qp.Close(); post(c0, OpSend, 500, true) })
	burst(us(3400), s0, OpSend, 500, 1)
	// c1: injected QP error with Writes and Reads on the wire and queued.
	burst(us(3300), c1, OpRead, 64000, 4)
	burst(us(3300), s1, OpWrite, 64000, 3)
	fab.ScheduleQPError(us(3390), s1.qp, nil)
	burst(us(3500), c1, OpSend, 500, 2)
	// c2: its peer stops reposting receives, sends retry to the RNR limit.
	sim.At(us(3300), func() { starve[s2.qp] = true })
	burst(us(3301), c2, OpSend, 500, 6)
	burst(us(3600), s2, OpWrite, 4000, 1)
	// mux: endpoint 0 starves (endpoint-scoped RNR error), then the shared QP
	// keeps serving endpoint 1, posts to the stale stream flush, and finally
	// the shared QP itself dies with work in flight.
	sim.At(us(3300), func() { starve[ep0.qp] = true })
	burst(us(3301), mux0, OpSend, 500, 5)
	burst(us(3500), mux1, OpWrite, 32000, 2)
	burst(us(3500), mux0, OpWrite, 4000, 2)
	burst(us(3500), ep1, OpRead, 32000, 3)
	burst(us(4050), mux1, OpRead, 64000, 3)
	burst(us(4050), ep1, OpWrite, 64000, 2)
	fab.ScheduleQPError(us(4100), mux, nil)
	burst(us(4300), ep1, OpSend, 500, 1)
	burst(us(4300), mux1, OpSend, 500, 1)

	final := sim.Run()
	fmt.Fprintf(&b, "end=%d\n", int64(final))
	for _, n := range append([]*Node{srv}, clients...) {
		fmt.Fprintf(&b, "%s tx=%.9f rx=%.9f\n", n.name, n.txPort.BusySeconds(), n.rxPort.BusySeconds())
	}
	seen := map[*QP]bool{}
	for _, e := range ends {
		if !seen[e.qp] {
			seen[e.qp] = true
			fmt.Fprintf(&b, "%s ord=%.9f err=%v\n", e.qp.track, e.qp.ord.BusySeconds(), e.qp.Err())
		}
	}
	for _, c := range fab.Counters.Snapshot() {
		fmt.Fprintf(&b, "%s=%d\n", c.Name, c.Value)
	}
	return b.String()
}

// TestEngineGolden compares the fabric's completion log with the one recorded
// at the commit before the send engine and the read responder became callback
// chains. Regenerate with `go test ./internal/ibsim -run TestEngineGolden
// -update` only for a deliberate change of fabric behaviour.
func TestEngineGolden(t *testing.T) {
	const path = "testdata/engine_golden.txt"
	got := engineGolden()
	if again := engineGolden(); again != got {
		t.Fatal("two runs of the same schedule differ")
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
}
