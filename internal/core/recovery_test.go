package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/trace"
)

// recoveryProfile is LinuxSDR with per-call timeouts armed, so calls whose
// replay was silently dropped by the server (duplicate of a still-executing
// request) time out and are replayed again instead of hanging.
func recoveryProfile() profiles.Profile {
	prof := profiles.LinuxSDR()
	prof.RDMAClient.CallTimeout = 5 * time.Millisecond
	return prof
}

// TestRecoveryReplaysInFlightWrites is the tentpole end-to-end check: a
// burst of concurrent WRITEs, a QP error injected mid-burst, and transparent
// recovery must land every byte exactly once — the server's duplicate
// request cache suppresses re-execution of replayed non-idempotent calls,
// and the connection teardown leaks no reply slots.
func TestRecoveryReplaysInFlightWrites(t *testing.T) {
	for _, design := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead} {
		t.Run(design.String(), func(t *testing.T) {
			cluster := NewCluster(Config{
				Profile: recoveryProfile(), Transport: TransportRDMA,
				Design: design, RegMode: memreg.Regular, CopyData: true,
				Recovery: &RetryPolicy{},
			})
			cl := cluster.Clients[0]
			const (
				workers   = 4
				perWorker = 12
				recSize   = 128 << 10
			)
			cluster.Start("t", func(p *des.Proc) {
				// Three faults spaced through the burst. ScheduleLinkFlap
				// resolves live connections at fire time, so later flaps kill
				// the replacement connections too.
				for i, d := range []des.Duration{500 * time.Microsecond, 2 * time.Millisecond, 4 * time.Millisecond} {
					_ = i
					cluster.Fabric.ScheduleLinkFlap(p.Now()+des.Time(d), cl.Node, cluster.Server.Node)
				}
				sim := p.Sim()
				events := make([]*des.Event, workers)
				for w := 0; w < workers; w++ {
					w := w
					ev := des.NewEvent(sim)
					events[w] = ev
					sim.Spawn(fmt.Sprintf("writer-%d", w), func(wp *des.Proc) {
						defer ev.Fire(nil)
						f, err := cl.Create(wp, fmt.Sprintf("f%d", w))
						if err != nil {
							t.Errorf("worker %d create: %v", w, err)
							return
						}
						buf := cl.NewMaterializedBuffer(recSize)
						for rec := 0; rec < perWorker; rec++ {
							fill := byte(1 + w*perWorker + rec)
							b := buf.Bytes()
							for i := range b {
								b[i] = fill
							}
							n, err := f.WriteAt(wp, buf, 0, int64(rec)*recSize, recSize, true)
							if err != nil || n != recSize {
								t.Errorf("worker %d write %d: n=%d err=%v", w, rec, n, err)
								return
							}
						}
					})
				}
				des.WaitAll(p, events...)

				reconnects, replays := cl.RecoveryStats()
				if reconnects < 1 {
					t.Errorf("reconnects = %d, want >= 1 (faults did not land?)", reconnects)
				}
				if replays < reconnects {
					t.Errorf("replays = %d < reconnects = %d", replays, reconnects)
				}

				// Every byte landed, exactly once per record.
				rbuf := cl.NewMaterializedBuffer(recSize)
				for w := 0; w < workers; w++ {
					f, err := cl.Open(p, fmt.Sprintf("f%d", w))
					if err != nil {
						t.Errorf("open f%d: %v", w, err)
						continue
					}
					for rec := 0; rec < perWorker; rec++ {
						n, _, err := f.ReadAt(p, rbuf, 0, int64(rec)*recSize, recSize, false)
						if err != nil || n != recSize {
							t.Errorf("read f%d rec %d: n=%d err=%v", w, rec, n, err)
							continue
						}
						want := byte(1 + w*perWorker + rec)
						for i, got := range rbuf.Bytes() {
							if got != want {
								t.Errorf("f%d rec %d byte %d = %#x, want %#x", w, rec, i, got, want)
								break
							}
						}
					}
				}

				// Zero duplicate side effects: the server executed each WRITE
				// exactly once even though some were retransmitted.
				if got := cluster.Server.NFS.Ops[nfs3.ProcWrite]; got != workers*perWorker {
					t.Errorf("server executed %d WRITEs, want exactly %d", got, workers*perWorker)
				}
				// Dead connections leaked nothing.
				p.Sleep(10 * time.Millisecond)
				if got := cluster.Server.RDMA.ParkedReplies(); got != 0 {
					t.Errorf("parked replies = %d after recovery, want 0", got)
				}
			})
			cluster.Run()
		})
	}
}

// TestReconnectInheritsConfig pins the bugfix in Reconnect: the replacement
// transport must carry the cluster's design and timeout policy, not package
// defaults.
func TestReconnectInheritsConfig(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: recoveryProfile(), Transport: TransportRDMA,
		Design: rpcrdma.ReadRead, RegMode: memreg.Regular, CopyData: true,
	})
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		breakConnection(p, cl)
		if err := cl.Reconnect(p); err != nil {
			t.Fatalf("reconnect: %v", err)
		}
		if got := cl.RDMA.Design(); got != rpcrdma.ReadRead {
			t.Errorf("reconnected transport design = %v, want ReadRead", got)
		}
		if got := cl.RDMA.Config().CallTimeout; got != 5*time.Millisecond {
			t.Errorf("reconnected transport CallTimeout = %v, want 5ms", got)
		}
		// And the fresh connection actually serves traffic.
		f, err := cl.Create(p, "after")
		if err != nil {
			t.Fatalf("create after reconnect: %v", err)
		}
		buf := cl.NewMaterializedBuffer(4096)
		if _, err := f.WriteAt(p, buf, 0, 0, 4096, true); err != nil {
			t.Errorf("write after reconnect: %v", err)
		}
	})
	cluster.Run()
}

// TestRecoverySurfacesErrorWhenExhausted: when every reconnect lands on a
// freshly faulted fabric, the retry policy eventually gives up and the
// transport error reaches the caller instead of looping forever.
func TestRecoverySurfacesErrorWhenExhausted(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: recoveryProfile(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular, CopyData: true,
		Recovery: &RetryPolicy{MaxReconnects: 2, Backoff: 50 * time.Microsecond},
	})
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		f, err := cl.Create(p, "doomed")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		// Kill the current connection and every replacement as it appears.
		stop := false
		sim := p.Sim()
		var hammer func(fp *des.Proc)
		hammer = func(fp *des.Proc) {
			if stop {
				return
			}
			qp := cl.RDMA.QP()
			if qp.Err() == nil {
				qp.InjectError(nil)
			}
			sim.SpawnAt(fp.Now()+des.Time(100*time.Microsecond), "hammer", hammer)
		}
		sim.Spawn("hammer", hammer)
		buf := cl.NewMaterializedBuffer(64 << 10)
		_, err = f.WriteAt(p, buf, 0, 0, 64<<10, true)
		stop = true
		if err == nil {
			t.Error("write on a permanently faulted fabric should fail")
		}
		rc, _ := cl.RecoveryStats()
		if rc < 1 || rc > 3 {
			t.Errorf("reconnects = %d, want 1..3 (policy MaxReconnects=2)", rc)
		}
	})
	cluster.RunUntil(des.Time(time.Second))
}

// loseFirstCall is the NFS service of a server whose connection dies while it
// executes the first call of procedure proc it is handed, so that call's
// reply is lost and the client replays it on a new connection. It records
// what each execution of proc was handed; Args is a slice of the Send that
// carried the call.
type loseFirstCall struct {
	*nfs3.Server
	proc  uint32
	kill  func(xid uint32)
	xids  []uint32
	args  [][]byte
	first []byte // the first call's arguments as they were received
}

// HandleThen records the call and kills the connection of the first, then
// serves it: the dispatcher runs an NFS service's calls through HandleThen.
func (s *loseFirstCall) HandleThen(req *oncrpc.ServerRequest, resp *oncrpc.ServerResponse, fn func(any), arg any) {
	if req.Header.Proc == s.proc {
		s.xids = append(s.xids, req.Header.XID)
		s.args = append(s.args, req.Args)
		if len(s.xids) == 1 {
			s.first = bytes.Clone(req.Args)
			s.kill(req.Header.XID)
		}
	}
	s.Server.HandleThen(req, resp, fn, arg)
}

// TestReplayFramesACopy: the recovery layer replays a call on a fresh
// connection in a copy of the call, not in the buffer of the Send already
// posted, whose room that Send's header took: the first Send's bytes are
// unchanged once the replay is served, and both executions were handed the
// same XID and arguments. The all-physical READ advertises more write-list
// segments than its room counted, so framing slid the call inside its buffer
// and the replay must copy the call from where it now lies. The LOOKUP of a
// 200-byte name outgrows the request's inline store, so the call was moved
// out of it by append before it was framed.
func TestReplayFramesACopy(t *testing.T) {
	long := strings.Repeat("n", 200)
	for _, tc := range []struct {
		name string
		mode memreg.Mode
		proc uint32
	}{
		{"getattr", memreg.Regular, nfs3.ProcGetAttr},
		{"read all-physical", memreg.AllPhysical, nfs3.ProcRead},
		{"lookup past the inline store", memreg.Regular, nfs3.ProcLookup},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := NewCluster(Config{
				Profile: recoveryProfile(), Transport: TransportRDMA,
				Design: rpcrdma.ReadWrite, RegMode: tc.mode, CopyData: true,
				Recovery: &RetryPolicy{},
			})
			tr := trace.New(0)
			cluster.Sim.SetTracer(tr)
			cl := cluster.Clients[0]
			cluster.Start("t", func(p *des.Proc) {
				const size = 64 << 10
				f, err := cl.Create(p, "f")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				buf := cl.NewMaterializedBuffer(size)
				if _, err := f.WriteAt(p, buf, 0, 0, size, true); err != nil {
					t.Fatalf("write: %v", err)
				}
				if tc.proc == nfs3.ProcLookup {
					if _, err := cl.Create(p, long); err != nil {
						t.Fatalf("create: %v", err)
					}
				}
				segs := 0 // segments the first attempt advertised
				svc := &loseFirstCall{Server: cluster.Server.NFS, proc: tc.proc, kill: func(xid uint32) {
					for _, e := range tr.Events() {
						if e.Kind == trace.KindExpose && e.ID == uint64(xid) && e.Track == cl.Node.Name() {
							segs++
						}
					}
					cl.RDMA.QP().InjectError(nil)
				}}
				disp := oncrpc.NewDispatcher()
				disp.Register(svc)
				mgr := memreg.NewManager(p, cluster.Server.Node, memreg.Config{Mode: tc.mode})
				cluster.Server.RDMA = rpcrdma.NewServerTransport(cluster.Server.Node, mgr, disp, cluster.serverRDMACfg)
				breakConnection(p, cl) // the next call dials the server above

				switch tc.proc {
				case nfs3.ProcRead:
					_, _, err = f.ReadAt(p, buf, 0, 0, size, false)
					if segs < 2 {
						t.Errorf("the READ advertised %d segments, want several (no slide)", segs)
					}
				case nfs3.ProcLookup:
					_, _, err = cl.NFS.Lookup(p, cl.Root, long)
				default:
					_, err = cl.NFS.GetAttr(p, f.FH())
				}
				if err != nil {
					t.Fatalf("call across the lost reply: %v", err)
				}
				if len(svc.xids) != 2 || svc.xids[0] != svc.xids[1] || !bytes.Equal(svc.args[1], svc.first) {
					t.Fatalf("executions: XIDs %x, arguments %x, want the same call twice", svc.xids, svc.args)
				}
				if !bytes.Equal(svc.args[0], svc.first) {
					t.Errorf("the first Send changed under the replay: %x, was %x", svc.args[0], svc.first)
				}
				if &svc.args[0][0] == &svc.args[1][0] {
					t.Error("the replay was framed in the first Send's buffer")
				}
				if _, replays := cl.RecoveryStats(); replays == 0 {
					t.Error("the call was not replayed")
				}
			})
			cluster.Run()
		})
	}
}
