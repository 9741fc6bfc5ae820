package rpcrdma

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/oncrpc"
)

// TestRetransmittedRepliesAreReleased: every reply the server parks is
// released exactly once, by the RDMA_DONE the client sends once it no longer
// reads the reply (pulled, fetched, abandoned, or arrived with no live call)
// or by the connection's death — never left behind by a retransmission. One
// client reads 32 KiB under Regular registration with call timers short
// enough that the call is retransmitted (20–40 µs: the retransmission reaches
// the server while the first reply is parked) or that its reply comes late
// (50 µs), with retransmissions and without; the connection then stays alive
// for 5 ms. Nothing may stay parked, hold a reply slot or stay exposed; a
// call that succeeds returns the stored bytes; and on a live connection
// every reply but the one that served the call is counted, by the client (it
// served no call) or by the server (it did not keep it parked), and every
// DONE released one.
func TestRetransmittedRepliesAreReleased(t *testing.T) {
	const size = 32 << 10
	for _, design := range []Design{ReadWrite, ReadRead, ReplyFetch} {
		for _, retries := range []int{6, 0} {
			for _, timeout := range []time.Duration{20 * time.Microsecond, 30 * time.Microsecond, 40 * time.Microsecond, 50 * time.Microsecond} {
				t.Run(fmt.Sprintf("%v/retries=%d/timeout=%v", design, retries, timeout), func(t *testing.T) {
					newEnv(t, design, memreg.Regular, func(p *des.Proc, e *env) {
						e.svc.stored = pattern(size, 3)
						cq, sq := e.fab.Connect(e.client, e.server, ibsim.QPConfig{})
						e.st.TryServe(sq)
						e.ct = NewClientTransport(p, cq, memreg.NewManager(p, e.client, memreg.Config{Mode: memreg.Regular}),
							Config{Design: design, CallTimeout: timeout, RetryLimit: retries})
						rpc := oncrpc.NewClient(e.ct, 4242, 1, oncrpc.Auth{})
						dst := &oncrpc.Bulk{Data: make([]byte, size), Len: size}
						_, n, err := rpc.Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
						if err == nil && (n != size || !bytes.Equal(dst.Data, e.svc.stored)) {
							t.Errorf("the call returned %d bytes, want the %d stored", n, size)
						}
						p.Sleep(5 * time.Millisecond)
						if n := e.st.ParkedReplies(); n != 0 {
							t.Errorf("%d replies still parked", n)
						}
						if n := e.st.replySlots.InUse(); n != 0 {
							t.Errorf("%d reply slots still held", n)
						}
						if n := e.server.HCA.RemoteExposedBytes(); n != 0 {
							t.Errorf("%d bytes of server memory still exposed", n)
						}
						if e.ct.Broken() {
							// A late RDMA Write into a slot or buffer the client
							// deregistered killed the connection (Read-Write,
							// Reply-Fetch), and its death released what was parked.
							return
						}
						served := int64(0)
						if err == nil {
							served = 1
						}
						if got := served + e.ct.StrayReplies + e.st.RepliesDeclined; got != e.st.Requests {
							t.Errorf("%d requests served, but %d served the call, %d replies were stray at the client and %d declined at the server",
								e.st.Requests, served, e.ct.StrayReplies, e.st.RepliesDeclined)
						}
						if e.st.DoneRecv != e.ct.DoneSent || e.st.DoneRejected != 0 {
							t.Errorf("%d DONEs sent, %d received, %d of them for nothing parked: want every DONE to release a reply",
								e.ct.DoneSent, e.st.DoneRecv, e.st.DoneRejected)
						}
					})
				})
			}
		}
	}
}
