package rpcrdma

import (
	"bytes"
	"errors"
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
// or by the connection's death; and nothing the server sends for a call that
// timed out lands in a buffer the call gave back. One client reads 32 KiB
// with call timers short enough that the call times out (20–40 µs: the
// server is still serving it) or that its reply comes late (50 µs), under
// each registration mode on both ends. A call that times out is replayed
// retries times, with its XID, as the recovery layer replays it: on a new
// connection when the timeout ended the old one. A second call, on a new
// connection through the same registration manager, then takes the chunks
// the first gave back at once and must read its own bytes. After 5 ms
// nothing may stay parked or hold a reply slot, and the server exposes only
// what its registration mode keeps exposed by design (exposedByDesign). On
// connections that stayed alive, every reply but the one that served the
// call is counted, by the client (it served no call) or by the server (it did
// not keep it parked), and every DONE released one.
func TestRetransmittedRepliesAreReleased(t *testing.T) {
	const size = 32 << 10
	for _, design := range []Design{ReadWrite, ReadRead, ReplyFetch} {
		for _, retries := range []int{6, 0} {
			for _, timeout := range []time.Duration{20 * time.Microsecond, 30 * time.Microsecond, 40 * time.Microsecond, 50 * time.Microsecond} {
				t.Run(fmt.Sprintf("%v/retries=%d/timeout=%v", design, retries, timeout), func(t *testing.T) {
					for _, mode := range []memreg.Mode{memreg.Regular, memreg.FMR, memreg.AllPhysical, memreg.Cache} {
						t.Run(mode.String(), func(t *testing.T) {
							newEnv(t, design, mode, func(p *des.Proc, e *env) {
								mgr := memreg.NewManager(p, e.client, memreg.Config{Mode: mode})
								var cts []*ClientTransport
								dial := func(cfg Config) *ClientTransport {
									cq, sq := e.fab.Connect(e.client, e.server, ibsim.QPConfig{})
									e.st.TryServe(sq)
									cfg.Design = design
									cts = append(cts, NewClientTransport(cq, mgr, cfg))
									return cts[len(cts)-1]
								}
								r := &replayer{ct: dial(Config{CallTimeout: timeout}), retries: retries, dial: dial}
								e.svc.stored = pattern(size, 3)
								dst := &oncrpc.Bulk{Data: make([]byte, size), Len: size}
								_, n, err := oncrpc.NewClient(r, 4242, 1, oncrpc.Auth{}).Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: dst})
								if err == nil && (n != size || !bytes.Equal(dst.Data, e.svc.stored)) {
									t.Errorf("the call returned %d bytes, want the %d stored", n, size)
								}
								e.svc.stored = pattern(size, 7)
								second := &oncrpc.Bulk{Data: make([]byte, size), Len: size}
								if _, n, err := oncrpc.NewClient(dial(Config{}), 4242, 1, oncrpc.Auth{}).Call(p, 2, nil, oncrpc.CallOpts{RecvBulk: second}); err != nil || n != size {
									t.Errorf("second call: n=%d err=%v", n, err)
								}
								p.Sleep(5 * time.Millisecond)
								if !bytes.Equal(second.Data, e.svc.stored) {
									t.Error("the second call's bytes are not its own: a reply to the first landed in the chunks it gave back")
								}
								if n := e.st.ParkedReplies(); n != 0 {
									t.Errorf("%d replies still parked", n)
								}
								if n := e.st.replySlots.InUse(); n != 0 {
									t.Errorf("%d reply slots still held", n)
								}
								if got, want := e.server.HCA.RemoteExposedBytes(), exposedByDesign(design, e.st.mgr); got != want {
									t.Errorf("%d bytes of server memory exposed, want the %d %v keeps exposed", got, want, mode)
								}
								served, stray, done := int64(1), int64(0), int64(0)
								if err == nil {
									served++
								}
								for _, ct := range cts {
									if ct.Broken() {
										// A connection died, and its death released what
										// was parked for it.
										return
									}
									stray, done = stray+ct.StrayReplies, done+ct.DoneSent
								}
								if got := served + stray + e.st.RepliesDeclined; got != e.st.Requests {
									t.Errorf("%d requests served, but %d served a call, %d replies were stray at the client and %d declined at the server",
										e.st.Requests, served, stray, e.st.RepliesDeclined)
								}
								if e.st.DoneRecv != done || e.st.DoneRejected != 0 {
									t.Errorf("%d DONEs sent, %d received, %d of them for nothing parked: want every DONE to release a reply",
										done, e.st.DoneRecv, e.st.DoneRejected)
								}
							})
						})
					}
				})
			}
		}
	}
}

// exposedByDesign is the server memory a registration mode keeps remotely
// accessible once every call has ended: all-physical's one global
// registration (memreg's 1 TiB) under any design, and under the cache the
// Read-Read reply staging chunks (maxBulk each, one per reply staged at
// once) it keeps registered for reuse — the §4.1 exposure those modes buy,
// not a leak. A chunk a reply still held would be exposed on top of them.
func exposedByDesign(design Design, mgr *memreg.Manager) int64 {
	switch {
	case mgr.Mode() == memreg.AllPhysical:
		return 1 << 40
	case mgr.Mode() == memreg.Cache && design == ReadRead:
		return mgr.CachedBytes()
	}
	return 0
}

// replayer is the recovery layer's retry path in miniature: a call that
// times out is replayed, with its XID, up to retries times, on a new
// connection when the timeout left the old one broken.
type replayer struct {
	ct      *ClientTransport
	retries int
	dial    func(Config) *ClientTransport
}

func (r *replayer) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := r.ct.Roundtrip(p, req)
		if !errors.Is(err, ErrTimeout) || attempt >= r.retries {
			return resp, err
		}
		if r.ct.Broken() {
			r.ct = r.dial(r.ct.Config())
		}
	}
}

func (r *replayer) Close() { r.ct.Close() }
