package nfs3

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// loopback dispatches calls straight into a Dispatcher, bulk payloads
// copied as a stream transport would.
type loopback struct{ d *oncrpc.Dispatcher }

func (lt *loopback) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	cap := 0
	if req.RecvBulk != nil {
		cap = req.RecvBulk.Len
	}
	reply, bulkOut, err := lt.d.Dispatch(p, req.Header, oncrpc.DispatchOpts{Bulk: req.SendBulk, RecvBulkCap: cap})
	if err != nil {
		return nil, err
	}
	n := 0
	if bulkOut != nil && req.RecvBulk != nil {
		n = bulkOut.Len
		if req.RecvBulk.Data != nil && bulkOut.Data != nil {
			copy(req.RecvBulk.Data, bulkOut.Data[:n])
		}
	}
	return &oncrpc.Response{Header: reply, BulkLen: n}, nil
}

func (lt *loopback) Close() {}

// handle serves req on p, without a dispatcher.
func handle(p *des.Proc, srv *Server, req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	var resp oncrpc.ServerResponse
	srv.HandleThen(req, &resp, des.Resumer, p)
	p.Suspend()
	return resp
}

func newPair(t *testing.T) (*des.Sim, *Client, *Server) {
	t.Helper()
	sim := des.New()
	fs := vfs.NewNamespace(sim, vfs.NewMemStore(true), 1<<40)
	srv := NewServer(fs, ServerConfig{})
	d := oncrpc.NewDispatcher()
	d.Register(srv)
	return sim, NewClient(&loopback{d: d}, "testclient"), srv
}

func TestEndToEndFileLifecycle(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		fh, attr, err := c.Create(p, root, "data.bin", 0644)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if attr.Type != TypeReg {
			t.Errorf("type = %v", attr.Type)
		}
		payload := []byte("0123456789abcdef0123456789abcdef")
		wres, err := c.Write(p, fh, 0, oncrpc.NewBulk(payload), FileSync)
		if err != nil || wres.Count != uint32(len(payload)) {
			t.Errorf("write: %+v %v", wres, err)
		}
		got, gattr, err := c.Lookup(p, root, "data.bin")
		if err != nil || got != fh {
			t.Errorf("lookup: %v %v", got, err)
		}
		if gattr.Size != uint64(len(payload)) {
			t.Errorf("size = %d", gattr.Size)
		}
		dst := &oncrpc.Bulk{Data: make([]byte, 64), Len: 64}
		rres, err := c.Read(p, fh, 0, dst, false)
		if err != nil || !rres.EOF {
			t.Errorf("read: %+v %v", rres, err)
		}
		if !bytes.Equal(dst.Data[:rres.Count], payload) {
			t.Errorf("data = %q", dst.Data[:rres.Count])
		}
		if err := c.Remove(p, root, "data.bin"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if _, _, err := c.Lookup(p, root, "data.bin"); !isStatus(err, ErrNoEnt) {
			t.Errorf("lookup after remove: %v", err)
		}
	})
	sim.Run()
}

func isStatus(err error, want Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == want
}

func TestReadOffsetsAndEOF(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		fh, _, _ := c.Create(p, root, "f", 0644)
		content := make([]byte, 1000)
		for i := range content {
			content[i] = byte(i)
		}
		c.Write(p, fh, 0, oncrpc.NewBulk(content), Unstable)
		// Mid-file read.
		dst := &oncrpc.Bulk{Data: make([]byte, 100), Len: 100}
		r, err := c.Read(p, fh, 200, dst, false)
		if err != nil || r.Count != 100 || r.EOF {
			t.Errorf("mid read: %+v %v", r, err)
		}
		if !bytes.Equal(dst.Data[:100], content[200:300]) {
			t.Error("mid read data mismatch")
		}
		// Tail read crossing EOF.
		dst = &oncrpc.Bulk{Data: make([]byte, 100), Len: 100}
		r, err = c.Read(p, fh, 950, dst, false)
		if err != nil || r.Count != 50 || !r.EOF {
			t.Errorf("tail read: %+v %v", r, err)
		}
		// Read past EOF.
		r, err = c.Read(p, fh, 5000, &oncrpc.Bulk{Data: make([]byte, 10), Len: 10}, false)
		if err != nil || r.Count != 0 || !r.EOF {
			t.Errorf("past-eof read: %+v %v", r, err)
		}
	})
	sim.Run()
}

func TestDirOpsOverWire(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		d1, _, err := c.Mkdir(p, root, "sub", 0755)
		if err != nil {
			t.Errorf("mkdir: %v", err)
		}
		for i := 0; i < 40; i++ {
			if _, _, err := c.Create(p, d1, fmt.Sprintf("file%02d", i), 0644); err != nil {
				t.Errorf("create %d: %v", i, err)
			}
		}
		var names []string
		cookie := uint64(0)
		for {
			res, err := c.ReadDir(p, d1, cookie, 1024, false)
			if err != nil {
				t.Errorf("readdir: %v", err)
				return
			}
			for _, ent := range res.Entries {
				names = append(names, ent.Name)
				cookie = ent.Cookie
			}
			if res.EOF {
				break
			}
		}
		if len(names) != 40 {
			t.Errorf("listed %d names", len(names))
		}
		// READDIRPLUS carries attributes and handles.
		res, err := c.ReadDir(p, d1, 0, 4096, true)
		if err != nil {
			t.Errorf("readdirplus: %v", err)
		}
		for _, ent := range res.Entries {
			if !ent.Attr.Present || !ent.FHPresent {
				t.Errorf("readdirplus entry %q missing attr/fh", ent.Name)
			}
		}
	})
	sim.Run()
}

func TestSymlinkReadLink(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		lfh, err := c.Symlink(p, root, "ln", "/very/long/target")
		if err != nil {
			t.Errorf("symlink: %v", err)
		}
		target, err := c.ReadLink(p, lfh)
		if err != nil || target != "/very/long/target" {
			t.Errorf("readlink: %q %v", target, err)
		}
	})
	sim.Run()
}

func TestRenameLinkAccessPathConf(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		fh, _, _ := c.Create(p, root, "a", 0644)
		if err := c.Rename(p, root, "a", root, "b"); err != nil {
			t.Errorf("rename: %v", err)
		}
		if err := c.Link(p, fh, root, "b2"); err != nil {
			t.Errorf("link: %v", err)
		}
		attr, err := c.GetAttr(p, fh)
		if err != nil || attr.Nlink != 2 {
			t.Errorf("nlink = %d %v", attr.Nlink, err)
		}
		mask, err := c.Access(p, fh, AccessRead|AccessModify)
		if err != nil || mask != AccessRead|AccessModify {
			t.Errorf("access: %#x %v", mask, err)
		}
		pc, err := c.PathConf(p, fh)
		if err != nil || pc.NameMax != vfs.MaxNameLen {
			t.Errorf("pathconf: %+v %v", pc, err)
		}
	})
	sim.Run()
}

func TestSetAttrTruncate(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		fh, _, _ := c.Create(p, root, "f", 0644)
		c.Write(p, fh, 0, oncrpc.NewBulk(make([]byte, 100)), Unstable)
		sz := uint64(10)
		if err := c.SetAttr(p, fh, SAttr{Size: &sz}); err != nil {
			t.Errorf("setattr: %v", err)
		}
		attr, _ := c.GetAttr(p, fh)
		if attr.Size != 10 {
			t.Errorf("size = %d", attr.Size)
		}
	})
	sim.Run()
}

func TestFSStatFSInfoCommit(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		st, err := c.FSStat(p, root)
		if err != nil || st.TBytes == 0 {
			t.Errorf("fsstat: %+v %v", st, err)
		}
		fi, err := c.FSInfo(p, root)
		if err != nil || fi.RTMax == 0 || fi.WTMax == 0 {
			t.Errorf("fsinfo: %+v %v", fi, err)
		}
		fh, _, _ := c.Create(p, root, "f", 0644)
		c.Write(p, fh, 0, oncrpc.NewBulk([]byte("x")), Unstable)
		cr, err := c.Commit(p, fh, 0, 0)
		if err != nil || cr.Verf == 0 {
			t.Errorf("commit: %+v %v", cr, err)
		}
	})
	sim.Run()
}

func TestBadHandleRejected(t *testing.T) {
	sim, c, _ := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		bad := FH{FSID: 0xbad, FileID: 1}
		if _, err := c.GetAttr(p, bad); !isStatus(err, ErrBadHandle) {
			t.Errorf("getattr bad fsid: %v", err)
		}
		stale := FH{FSID: 0x5eed, FileID: 9999}
		if _, err := c.GetAttr(p, stale); !isStatus(err, ErrStale) {
			t.Errorf("getattr stale: %v", err)
		}
	})
	sim.Run()
}

func TestWccDataPresent(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		fh, _, _ := c.Create(p, root, "f", 0644)
		res, err := c.Write(p, fh, 0, oncrpc.NewBulk([]byte("abc")), Unstable)
		if err != nil {
			t.Errorf("write: %v", err)
		}
		if !res.Wcc.Post.Present {
			t.Error("write reply missing post-op attributes")
		}
		if res.Committed != Unstable {
			t.Errorf("committed = %d", res.Committed)
		}
	})
	sim.Run()
}

func TestMknodNotSupported(t *testing.T) {
	sim, _, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		req := &oncrpc.ServerRequest{
			Header: oncrpc.CallHeader{Proc: ProcMknod},
			Args:   nil,
		}
		handle(p, srv, req)
		var r CreateRes
		c := xdr.DecodeFrom(req.Reply.Bytes())
		if r.XDR(&c); c.Err() != nil || r.Status != ErrNotSupp {
			t.Errorf("mknod: %+v %v", r, c.Err())
		}
	})
	sim.Run()
}

// quickRoundTrip encodes m and decodes it back, through roundTrip, as the
// type zero makes; it reports whether every byte of m's encoding decoded.
func quickRoundTrip(t *testing.T, zero func() message, m message) (message, bool) {
	t.Helper()
	e := xdr.NewEncoder(nil)
	encode(e, m)
	got, n, err := roundTrip(t, zero, e.Bytes())
	return got, err == nil && n == e.Len()
}

func TestFHRoundTrip(t *testing.T) {
	f := func(fsid, fileid uint64) bool {
		fh := FH{FSID: fsid, FileID: fileid}
		got, ok := quickRoundTrip(t, func() message { return new(FH) }, &fh)
		return ok && *got.(*FH) == fh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFAttrRoundTrip(t *testing.T) {
	f := func(mode, nlink, uid, gid uint32, size, fileid uint64) bool {
		a := FAttr{Type: TypeReg, Mode: mode, Nlink: nlink, UID: uid, GID: gid, Size: size, FileID: fileid}
		got, ok := quickRoundTrip(t, func() message { return new(FAttr) }, &a)
		return ok && *got.(*FAttr) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSAttrRoundTrip(t *testing.T) {
	f := func(hasMode, hasSize bool, mode uint32, size uint64, how, sec uint32) bool {
		var s SAttr
		if hasMode {
			s.Mode = &mode
		}
		if hasSize {
			s.Size = &size
		}
		s.Mtime.How = how % (SetToClientTime + 1)
		if s.Mtime.How == SetToClientTime {
			s.Mtime.Time.Sec = sec
		}
		m, ok := quickRoundTrip(t, func() message { return new(SAttr) }, &s)
		if !ok {
			return false
		}
		got := m.(*SAttr)
		if (got.Mode == nil) != (s.Mode == nil) || (got.Size == nil) != (s.Size == nil) {
			return false
		}
		if s.Mode != nil && *got.Mode != *s.Mode {
			return false
		}
		if s.Size != nil && *got.Size != *s.Size {
			return false
		}
		return got.Atime == s.Atime && got.Mtime == s.Mtime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReadDirResRoundTrip(t *testing.T) {
	f := func(names []string, eof bool) bool {
		res := ReadDirRes{Status: OK, CookieVerf: 7, EOF: eof}
		for i, n := range names {
			if len(n) > 200 {
				n = n[:200]
			}
			res.Entries = append(res.Entries, DirEntry3{FileID: uint64(i + 1), Name: n, Cookie: uint64(i + 1)})
		}
		m, ok := quickRoundTrip(t, func() message { return new(ReadDirRes) }, &res)
		if !ok {
			return false
		}
		got := m.(*ReadDirRes)
		if got.EOF != eof || len(got.Entries) != len(res.Entries) {
			return false
		}
		for i := range got.Entries {
			if got.Entries[i].Name != res.Entries[i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAttrGuard(t *testing.T) {
	sim, c, srv := newPair(t)
	sim.Spawn("client", func(p *des.Proc) {
		root := srv.RootFH()
		fh, _, _ := c.Create(p, root, "g", 0644)
		attr, _ := c.GetAttr(p, fh)
		p.Sleep(time.Microsecond) // let virtual time advance so ctime moves
		// Guarded SETATTR with the current ctime succeeds.
		mode := uint32(0600)
		args := SetAttrArgs{FH: fh, Attr: SAttr{Mode: &mode}, Guard: &attr.Ctime}
		var r WccRes
		if _, err := c.call(p, ProcSetAttr, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{}); err != nil {
			t.Errorf("matching guard rejected: %v", err)
		}
		// The first SETATTR bumped ctime: replaying the stale guard fails.
		if _, err := c.call(p, ProcSetAttr, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{}); !isStatus(err, ErrNotSync) {
			t.Errorf("stale guard: %v, want NFS3ERR_NOT_SYNC", err)
		}
	})
	sim.Run()
}

// TestDispatchRepliesAreExact: every reply Dispatch returns — one per NFS
// procedure, each answered NFS3_OK, READDIR[PLUS] a long one, and an
// unknown program's PROG_UNAVAIL — is its room and its message in a buffer
// of exactly that size, carved once the reply is built: nothing appended to
// a reply can reach the one carved next to it. It also pins the handle's
// wire form.
func TestDispatchRepliesAreExact(t *testing.T) {
	fh := FH{FSID: 0x0102030405060708, FileID: 0x1112131415161718}
	e := xdr.NewEncoder(nil)
	encode(e, &fh)
	want := append([]byte{0, 0, 0, 16}, 1, 2, 3, 4, 5, 6, 7, 8, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18)
	if !bytes.Equal(e.Bytes(), want) {
		t.Errorf("handle on the wire:\n got %x\nwant %x", e.Bytes(), want)
	}

	sim := des.New()
	fs := vfs.NewNamespace(sim, vfs.NewMemStore(false), 1<<30)
	srv := NewServer(fs, ServerConfig{})
	d := oncrpc.NewDispatcher()
	d.Register(srv)
	root := srv.RootFH()
	id, _, _ := fs.Create(nil, fs.Root(), "file", 0644)
	link, _, _ := fs.Symlink(nil, fs.Root(), "link", "file")
	for i := range 32 {
		fs.Create(nil, fs.Root(), fmt.Sprintf("f%02d", i), 0644)
	}
	file, mode := srv.mkFH(id), uint32(0644)
	calls := []struct {
		proc uint32
		args message
	}{
		{ProcNull, nil},
		{ProcGetAttr, &GetAttrArgs{FH: file}},
		{ProcSetAttr, &SetAttrArgs{FH: file, Attr: SAttr{Mode: &mode}}},
		{ProcLookup, &DirOpArgs{Dir: root, Name: "file"}},
		{ProcAccess, &AccessArgs{FH: file, Access: 0x1f}},
		{ProcReadLink, &GetAttrArgs{FH: srv.mkFH(link)}},
		{ProcRead, &ReadArgs{FH: file, Count: 8192}},
		{ProcWrite, &WriteArgs{FH: file, Stable: FileSync}},
		{ProcCreate, &CreateArgs{Where: DirOpArgs{Dir: root, Name: "new"}, Attr: SAttr{Mode: &mode}}},
		{ProcMkdir, &MkdirArgs{Where: DirOpArgs{Dir: root, Name: "dir"}, Attr: SAttr{Mode: &mode}}},
		{ProcSymlink, &SymlinkArgs{Where: DirOpArgs{Dir: root, Name: "sym"}, Target: "file"}},
		{ProcMknod, nil},
		{ProcRemove, &DirOpArgs{Dir: root, Name: "new"}},
		{ProcRmdir, &DirOpArgs{Dir: root, Name: "dir"}},
		{ProcRename, &RenameArgs{From: DirOpArgs{Dir: root, Name: "sym"}, To: DirOpArgs{Dir: root, Name: "sym2"}}},
		{ProcLink, &LinkArgs{FH: file, Link: DirOpArgs{Dir: root, Name: "hard"}}},
		{ProcReadDir, &ReadDirArgs{Dir: root, Count: 4096}},
		{ProcReadDirPlus, &ReadDirArgs{Dir: root, Count: 8192, Plus: true}},
		{ProcFSStat, &GetAttrArgs{FH: root}},
		{ProcFSInfo, &GetAttrArgs{FH: root}},
		{ProcPathConf, &GetAttrArgs{FH: root}},
		{ProcCommit, &CommitArgs{FH: file}},
	}
	if len(calls) != len(procs) {
		t.Fatalf("%d calls for %d procedures", len(calls), len(procs))
	}
	sim.Spawn("t", func(p *des.Proc) {
		dispatch := func(prog, proc uint32, args message) []byte {
			e := xdr.NewEncoder(nil)
			if args != nil {
				encode(e, args)
			}
			call := oncrpc.EncodeCall(&oncrpc.CallHeader{XID: proc, Prog: prog, Vers: Version, Proc: proc}, e.Bytes())
			reply, _, err := d.Dispatch(p, call, oncrpc.DispatchOpts{Room: 28})
			if err != nil {
				t.Fatalf("%s: %v", ProcName(proc), err)
			}
			if cap(reply) != len(reply) {
				t.Errorf("program %d, %s: a %d-byte reply in a buffer of %d", prog, ProcName(proc), len(reply), cap(reply))
			}
			return reply[28:]
		}
		for _, c := range calls {
			_, stat, results, err := oncrpc.DecodeReply(dispatch(Program, c.proc, c.args))
			if st, _ := xdr.NewDecoder(results).Uint32(); err != nil || stat != oncrpc.Success || c.proc != ProcNull && c.proc != ProcMknod && Status(st) != OK {
				t.Errorf("%s: %v, %v, results %x", ProcName(c.proc), err, stat, results)
			}
		}
		if _, stat, _, err := oncrpc.DecodeReply(dispatch(4242, ProcNull, nil)); err != nil || stat != oncrpc.ProgUnavail {
			t.Errorf("an unknown program: %v, %v", err, stat)
		}
	})
	sim.Run()
}
