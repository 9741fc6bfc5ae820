package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

// TestPhantomPayloadIsPhantom pins the rule for simulated bytes: they exist
// where a protocol reads them, and file payload is phantom unless CopyData.
//
// Without CopyData, a 64 KiB READ into a buffer the application chose to
// materialize must leave that buffer alone on every path — no transport
// staging holds payload bytes to copy there (before staging followed
// CopyData, a read delivered whatever the recycled staging slice last held).
// Protocol bytes still cross byte-exact: a SYMLINK whose target makes it a
// long call, the READLINK and READDIR long replies that bring the names back,
// and under Reply-Fetch every one of those as a slot deposit. With CopyData
// the same reads deliver the file's bytes.
func TestPhantomPayloadIsPhantom(t *testing.T) {
	const size = 64 << 10
	pattern := func(i int) byte { return byte(i*31 + 5) }
	for _, copyData := range []bool{false, true} {
		for _, mode := range []memreg.Mode{memreg.Regular, memreg.AllPhysical} {
			for _, design := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
				name := fmt.Sprintf("copy=%v/%v/%v", copyData, mode, design)
				cluster := NewCluster(Config{
					Profile: profiles.LinuxDDR(), Transport: TransportRDMA,
					Design: design, RegMode: mode, CopyData: copyData,
				})
				cl := cluster.Clients[0]
				cluster.Start("phantom", func(p *des.Proc) {
					f, err := cl.Create(p, "payload.bin")
					if err != nil {
						t.Errorf("%s: create: %v", name, err)
						return
					}
					wbuf := cl.NewMaterializedBuffer(size)
					for i, d := 0, wbuf.Bytes(); i < size; i++ {
						d[i] = pattern(i)
					}
					if _, err := f.WriteAt(p, wbuf, 0, 0, size, true); err != nil {
						t.Errorf("%s: write: %v", name, err)
						return
					}
					for _, direct := range []bool{false, true} {
						rbuf := cl.NewMaterializedBuffer(size)
						d := rbuf.Bytes()
						for i := range d {
							d[i] = 0xA5
						}
						if n, _, err := f.ReadAt(p, rbuf, 0, 0, size, direct); err != nil || n != size {
							t.Errorf("%s direct=%v: read %d bytes: %v", name, direct, n, err)
							continue
						}
						want := func(int) byte { return 0xA5 }
						if copyData {
							want = pattern
						}
						for i, b := range d {
							if b != want(i) {
								t.Errorf("%s direct=%v: byte %d is %#x, want %#x", name, direct, i, b, want(i))
								break
							}
						}
					}

					// Protocol bytes: long call out, long replies back.
					target := strings.Repeat("long/call/", 300) // 3000 B > the inline threshold
					link, err := cl.NFS.Symlink(p, cl.Root, "link", target)
					if err != nil {
						t.Errorf("%s: symlink: %v", name, err)
						return
					}
					if got, err := cl.NFS.ReadLink(p, link); err != nil || got != target {
						t.Errorf("%s: readlink returned %d bytes (%v), want the %d-byte target", name, len(got), err, len(target))
					}
					var names []string
					for i := 0; i < 40; i++ {
						names = append(names, fmt.Sprintf("entry-with-a-name-long-enough-to-fill-a-reply-%02d", i))
						if _, err := cl.Create(p, names[i]); err != nil {
							t.Errorf("%s: create %s: %v", name, names[i], err)
							return
						}
					}
					res, err := cl.NFS.ReadDir(p, cl.Root, 0, 8192, false)
					if err != nil {
						t.Errorf("%s: readdir: %v", name, err)
						return
					}
					var listed bytes.Buffer
					for _, e := range res.Entries {
						listed.WriteString(e.Name + "\n")
					}
					for _, n := range append(names, "link", "payload.bin") {
						if !strings.Contains(listed.String(), n+"\n") {
							t.Errorf("%s: readdir lost %q", name, n)
							break
						}
					}
				})
				cluster.Run()
				srv := cluster.Server.RDMA
				if srv.LongCalls == 0 || srv.LongReplies+srv.Deposits == 0 {
					t.Errorf("%s: %d long calls, %d long replies, %d deposits: the protocol staging was not exercised",
						name, srv.LongCalls, srv.LongReplies, srv.Deposits)
				}
			}
		}
	}
}
