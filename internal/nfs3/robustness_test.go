package nfs3

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// message is what every type with an XDR method is to these tests.
type message interface{ XDR(*xdr.Codec) }

// encode appends m to e.
func encode(e *xdr.Encoder, m message) {
	c := xdr.EncodeTo(e)
	m.XDR(&c)
}

// xdrTypes are the types FuzzXDR decodes, each with the messages its seeds
// encode: the argument and result of every procedure, the MOUNT messages,
// and the types they are built from.
func xdrTypes() []struct {
	zero  func() message
	seeds []message
} {
	fh := FH{FSID: 1, FileID: 2}
	mode, size := uint32(0644), uint64(100)
	attr := FAttr{Type: TypeReg, Mode: 0755, Nlink: 2, UID: 3, GID: 4, Size: 5, Used: 6, FSID: 7, FileID: 8, Mtime: NFSTime{Sec: 9, NSec: 10}}
	post := PostOpAttr{Present: true, Attr: attr}
	wcc := WccData{PrePresent: true, Pre: WccAttr{Size: 1, Ctime: NFSTime{Sec: 2}}, Post: post}
	sattr := SAttr{Mode: &mode, UID: &mode, GID: &mode, Size: &size, Atime: SetTime{How: SetToClientTime, Time: NFSTime{Sec: 1}}, Mtime: SetTime{How: SetToServerTime}}
	entries := []DirEntry3{{FileID: 1, Name: "n", Cookie: 1}, {FileID: 2, Name: "four", Cookie: 2}, {FileID: 3, Name: "seven..", Cookie: 3}, {FileID: 4, Name: "", Cookie: 4}}
	plusEntries := []DirEntry3{{FileID: 1, Name: "ab", Cookie: 1, Attr: post, FHPresent: true, FH: fh}, {FileID: 2, Name: "c", Cookie: 2}}
	return []struct {
		zero  func() message
		seeds []message
	}{
		{func() message { return new(FH) }, []message{&fh, &FH{}, &FH{FSID: ^uint64(0), FileID: ^uint64(0)}}},
		{func() message { return new(FAttr) }, []message{&attr, &FAttr{Type: TypeReg, Mode: 0644, Size: 1 << 40, FileID: 1 << 33}}},
		{func() message { return new(PostOpAttr) }, []message{&post, &PostOpAttr{}}},
		{func() message { return new(WccData) }, []message{&wcc, &WccData{}}},
		{func() message { return new(SAttr) }, []message{&sattr, &SAttr{Mode: &mode, Size: &size, Mtime: SetTime{How: SetToServerTime}}, &SAttr{}}},
		{func() message { return new(GetAttrArgs) }, []message{&GetAttrArgs{FH: fh}}},
		{func() message { return new(GetAttrRes) }, []message{&GetAttrRes{Status: OK, Attr: FAttr{Type: TypeReg}}, &GetAttrRes{Status: ErrStale}}},
		{func() message { return new(SetAttrArgs) }, []message{&SetAttrArgs{FH: fh, Attr: SAttr{Mode: &mode, Size: &size, Mtime: SetTime{How: SetToServerTime}}}, &SetAttrArgs{FH: fh, Guard: &NFSTime{Sec: 1, NSec: 2}}}},
		{func() message { return new(WccRes) }, []message{&WccRes{Status: OK, Wcc: wcc}}},
		{func() message { return new(DirOpArgs) }, []message{&DirOpArgs{Dir: fh, Name: "file"}}},
		{func() message { return new(LookupRes) }, []message{&LookupRes{Status: OK, Object: fh, ObjAttr: PostOpAttr{Present: true}}, &LookupRes{Status: ErrNoEnt, DirAttr: post}}},
		{func() message { return new(AccessArgs) }, []message{&AccessArgs{FH: fh, Access: 7}}},
		{func() message { return new(AccessRes) }, []message{&AccessRes{Status: OK, Attr: post, Access: 7}}},
		{func() message { return new(ReadLinkRes) }, []message{&ReadLinkRes{Status: OK, Attr: post, Path: "/very/long/target"}}},
		{func() message { return new(ReadArgs) }, []message{&ReadArgs{FH: fh, Offset: 1, Count: 2}}},
		{func() message { return new(ReadRes) }, []message{&ReadRes{Status: OK, Attr: post, Count: 8192, EOF: true}}},
		{func() message { return new(WriteArgs) }, []message{&WriteArgs{FH: fh, Offset: 1, Count: 2}}},
		{func() message { return new(WriteRes) }, []message{&WriteRes{Status: OK, Count: 1, Verf: 2, Wcc: WccData{PrePresent: true}}}},
		{func() message { return new(CreateArgs) }, []message{&CreateArgs{Where: DirOpArgs{Dir: fh, Name: "x"}, Attr: SAttr{Mode: &mode}}}},
		{func() message { return new(MkdirArgs) }, []message{&MkdirArgs{Where: DirOpArgs{Dir: fh, Name: "dir"}, Attr: sattr}}},
		{func() message { return new(SymlinkArgs) }, []message{&SymlinkArgs{Where: DirOpArgs{Dir: fh, Name: "ln"}, Target: "/t"}}},
		{func() message { return new(CreateRes) }, []message{&CreateRes{Status: OK, FHPresent: true, FH: fh, Attr: post, DirWcc: wcc}, &CreateRes{Status: ErrNotSupp}}},
		{func() message { return new(RenameArgs) }, []message{&RenameArgs{From: DirOpArgs{Dir: fh, Name: "a"}, To: DirOpArgs{Dir: fh, Name: "b"}}}},
		{func() message { return new(RenameRes) }, []message{&RenameRes{Status: OK, FromWcc: wcc, ToWcc: wcc}}},
		{func() message { return new(LinkArgs) }, []message{&LinkArgs{FH: fh, Link: DirOpArgs{Dir: fh, Name: "l"}}}},
		{func() message { return new(LinkRes) }, []message{&LinkRes{Status: OK, Attr: post, LinkWcc: wcc}}},
		{func() message { return new(ReadDirArgs) }, []message{&ReadDirArgs{Dir: fh, Cookie: 3, Count: 512}}},
		{func() message { return &ReadDirArgs{Plus: true} }, []message{&ReadDirArgs{Dir: fh, Cookie: 3, DirCount: 256, Count: 512, Plus: true}}},
		{func() message { return new(ReadDirRes) }, []message{
			&ReadDirRes{Status: OK, Entries: []DirEntry3{{FileID: 1, Name: "n", Cookie: 1}}, EOF: true},
			&ReadDirRes{Status: OK, DirAttr: post, CookieVerf: 7, Entries: entries},
		}},
		{func() message { return &ReadDirRes{Plus: true} }, []message{&ReadDirRes{Status: OK, CookieVerf: 7, Entries: plusEntries, EOF: true, Plus: true}}},
		{func() message { return new(FSStatRes) }, []message{&FSStatRes{Status: OK, TBytes: 1}}},
		{func() message { return new(FSInfoRes) }, []message{&FSInfoRes{Status: OK, RTMax: 1}}},
		{func() message { return new(PathConfRes) }, []message{&PathConfRes{Status: OK, LinkMax: 1}}},
		{func() message { return new(CommitArgs) }, []message{&CommitArgs{FH: fh, Offset: 9, Count: 8}}},
		{func() message { return new(CommitRes) }, []message{&CommitRes{Status: OK, Verf: 7}}},
		{func() message { return new(MountRes) }, []message{&MountRes{Status: MountOK, FH: fh}, &MountRes{Status: MountErrNoEnt}}},
		{func() message { return new(Exports) }, []message{&Exports{"/", "/projects"}}},
	}
}

// roundTrip decodes in as the type zero makes. If that succeeds, it checks
// that the value encodes back to exactly the bytes consumed and that no
// strict prefix of those decodes, and returns the value and how many bytes
// it took; otherwise it returns the decode error.
func roundTrip(t *testing.T, zero func() message, in []byte) (message, int, error) {
	t.Helper()
	m, c := zero(), xdr.DecodeFrom(in)
	if m.XDR(&c); c.Err() != nil {
		return nil, 0, c.Err()
	}
	wire := in[:c.Offset()]
	e := xdr.NewEncoder(nil)
	if encode(e, m); !bytes.Equal(e.Bytes(), wire) {
		t.Fatalf("%T %+v decoded from\n%x\nencodes to\n%x", m, m, wire, e.Bytes())
	}
	for cut := range wire {
		c := xdr.DecodeFrom(wire[:cut])
		if zero().XDR(&c); c.Err() == nil {
			t.Fatalf("%T: prefix %d of %x decoded", m, cut, wire)
		}
	}
	return m, len(wire), nil
}

// FuzzXDR decodes an input's tail as the type its first byte picks. What
// decodes must encode back to exactly the bytes it consumed, and no strict
// prefix of those may decode: there is one wire form per value.
func FuzzXDR(f *testing.F) {
	types := xdrTypes()
	for i, typ := range types {
		for _, m := range typ.seeds {
			e := xdr.NewEncoder([]byte{byte(i)})
			encode(e, m)
			f.Add(e.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		roundTrip(t, types[int(in[0])%len(types)].zero, in[1:])
	})
}

// TestDecodersSurviveTruncation encodes every message FuzzXDR is seeded
// with: the full encoding decodes to all of its bytes, and every strict
// prefix fails without panicking.
func TestDecodersSurviveTruncation(t *testing.T) {
	for _, typ := range xdrTypes() {
		for _, m := range typ.seeds {
			e := xdr.NewEncoder(nil)
			encode(e, m)
			if _, n, err := roundTrip(t, typ.zero, e.Bytes()); err != nil || n != e.Len() {
				t.Errorf("%T %+v: decoded %d of %d bytes: %v", m, m, n, e.Len(), err)
			}
		}
	}
}

// TestRejectionsDoNotAllocate decodes four malformed arguments — a bad
// bool, a bad handle length, a hostile string length and a truncation —
// and each fails with its sentinel without allocating.
func TestRejectionsDoNotAllocate(t *testing.T) {
	words := func(ws ...uint32) []byte {
		e := xdr.NewEncoder(nil)
		for _, w := range ws {
			e.Uint32(w)
		}
		return e.Bytes()
	}
	badBool := words(16, 0, 1, 0, 2, 2)       // SETATTR3args: the mode's discriminant is 2
	badHandle := words(20, 0, 1, 0, 2, 0)     // GETATTR3args: a 20-byte handle
	hostile := words(16, 0, 1, 0, 2, 1<<32-1) // diropargs3: a name of 2^32-1 bytes
	short := words(16, 0, 1, 0, 2, 0, 0)      // READ3args: no count
	var c xdr.Codec
	var errs [4]error
	allocs := testing.AllocsPerRun(100, func() {
		var set SetAttrArgs
		c = xdr.DecodeFrom(badBool)
		set.XDR(&c)
		errs[0] = c.Err()
		var get GetAttrArgs
		c = xdr.DecodeFrom(badHandle)
		get.XDR(&c)
		errs[1] = c.Err()
		var dirop DirOpArgs
		c = xdr.DecodeFrom(hostile)
		dirop.XDR(&c)
		errs[2] = c.Err()
		var read ReadArgs
		c = xdr.DecodeFrom(short)
		read.XDR(&c)
		errs[3] = c.Err()
	})
	for i, want := range []error{xdr.ErrBadBool, errHandleSize, xdr.ErrTooLong, xdr.ErrShortBuffer} {
		if errs[i] != want {
			t.Errorf("rejection %d: %v, want %v", i, errs[i], want)
		}
	}
	if allocs != 0 {
		t.Errorf("%v allocations per four rejections, want 0", allocs)
	}
}

func TestServerRejectsGarbageArgs(t *testing.T) {
	sim, _, srv := newPair(t)
	sim.Spawn("g", func(p *des.Proc) {
		garbage := []byte{0xde, 0xad}
		for proc := uint32(1); proc <= ProcCommit; proc++ {
			req := &oncrpc.ServerRequest{
				Header: oncrpc.CallHeader{Proc: proc},
				Args:   garbage,
			}
			if handle(p, srv, req).Stat != oncrpc.Success {
				continue // RPC-level rejection is also acceptable
			}
			d := xdr.NewDecoder(req.Reply.Bytes())
			st, err := d.Uint32()
			if err != nil {
				t.Errorf("proc %s: unreadable status", ProcName(proc))
				continue
			}
			if Status(st) == OK {
				t.Errorf("proc %s accepted garbage args", ProcName(proc))
			}
		}
	})
	sim.Run()
}

// TestServerRejectsNonCanonicalArgs sends arguments that decode field by
// field but hold a value the encoder never writes: an sattr3 time_how above
// SET_TO_CLIENT_TIME, a GUARDED create (only UNCHECKED is served), and WRITE
// data whose length is not the count. Each gets NFS3ERR_INVAL, not the
// result of what a liberal decoder made of it.
func TestServerRejectsNonCanonicalArgs(t *testing.T) {
	sim, _, srv := newPair(t)
	sim.Spawn("c", func(p *des.Proc) {
		root := srv.RootFH()
		file, _, err := srv.fs.Create(p, srv.fs.Root(), "f", 0644)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		args := func(fh FH, words ...uint32) []byte {
			e := xdr.NewEncoder(nil)
			e.Uint32(16)
			e.Uint64(fh.FSID)
			e.Uint64(fh.FileID)
			for _, w := range words {
				e.Uint32(w)
			}
			return e.Bytes()
		}
		name := func(s string) uint32 { return binary.BigEndian.Uint32([]byte(s)) }
		for _, c := range []struct {
			what string
			proc uint32
			args []byte
		}{
			// sattr3: no mode, uid, gid or size; atime how 3; mtime DONT_CHANGE; no guard.
			{"time_how 3", ProcSetAttr, args(root, 0, 0, 0, 0, 3, 0, 0)},
			// diropargs3 "abcd", createmode GUARDED, an empty sattr3.
			{"createmode GUARDED", ProcCreate, args(root, 4, name("abcd"), 1, 0, 0, 0, 0, 0, 0)},
			// offset 0, count 2, FILE_SYNC, data<> length 3.
			{"data length 3, count 2", ProcWrite, args(FH{FSID: root.FSID, FileID: uint64(file)}, 0, 0, 2, FileSync, 3)},
		} {
			req := &oncrpc.ServerRequest{Header: oncrpc.CallHeader{Proc: c.proc}, Args: c.args, Bulk: oncrpc.NewBulk([]byte("ab"))}
			handle(p, srv, req)
			if st := Status(binary.BigEndian.Uint32(req.Reply.Bytes())); st != ErrInval {
				t.Errorf("%s %s: status %v, want NFS3ERR_INVAL", ProcName(c.proc), c.what, st)
			}
		}
	})
	sim.Run()
}

// badReadService answers every call with READ3resok results whose data<>
// length (8) is not their count (4).
type badReadService struct{}

func (badReadService) Name() string    { return "bad-read" }
func (badReadService) Program() uint32 { return Program }
func (badReadService) Version() uint32 { return Version }
func (badReadService) HandleThen(req *oncrpc.ServerRequest, resp *oncrpc.ServerResponse, fn func(any), arg any) {
	for _, w := range []uint32{uint32(OK), 0, 4, 1, 8} { // status, no attributes, count, eof, data<> length
		req.Reply.Uint32(w)
	}
	*resp = oncrpc.ServerResponse{Stat: oncrpc.Success}
	fn(arg)
}

func TestReadRejectsDataLengthOtherThanCount(t *testing.T) {
	sim := des.New()
	d := oncrpc.NewDispatcher()
	d.Register(badReadService{})
	c := NewClient(&loopback{d: d}, "c")
	sim.Spawn("c", func(p *des.Proc) {
		if r, err := c.Read(p, FH{}, 0, &oncrpc.Bulk{Len: 4}, false); err == nil {
			t.Errorf("READ results with data<> length 8 and count 4 decoded: %+v", r)
		}
	})
	sim.Run()
}

// FuzzDispatch sends a raw call through Dispatcher.Dispatch to the NFS server
// (duplicate request cache on) twice, behind a room of 0 and of 64 bytes, as
// the stream and RDMA transports ask for it. On any frame it must not panic;
// a frame that is not a call must allocate at most one object, and one that
// is at most 64 objects plus one per byte of frame; a call that decodes gets
// a reply that DecodeReply reads, with the call's XID, and the room in front
// of it left zero; a call that is denied (another RPC version, a credential
// or verifier not accepted) gets a MSG_DENIED reply with its XID, the room in
// front of it left zero, or no reply when the frame is not a call at all.
func FuzzDispatch(f *testing.F) {
	root := FH{FSID: 0x5eed, FileID: 1}
	mode := uint32(0644)
	for _, c := range []struct {
		proc uint32
		args message
	}{
		{ProcNull, nil},
		{ProcGetAttr, &GetAttrArgs{FH: root}},
		{ProcLookup, &DirOpArgs{Dir: root, Name: "file"}},
		{ProcRead, &ReadArgs{FH: root, Offset: 1, Count: 8192}},
		{ProcWrite, &WriteArgs{FH: root, Offset: 1, Count: 2}},
		{ProcCreate, &CreateArgs{Where: DirOpArgs{Dir: root, Name: "x"}, Attr: SAttr{Mode: &mode}}},
		{ProcRename, &RenameArgs{From: DirOpArgs{Dir: root, Name: "a"}, To: DirOpArgs{Dir: root, Name: "b"}}},
		{ProcReadDir, &ReadDirArgs{Dir: root, Cookie: 3, Count: 512}},
		{ProcCommit, &CommitArgs{FH: root, Offset: 9, Count: 8}},
		{99, nil},
	} {
		e := xdr.NewEncoder(nil)
		if c.args != nil {
			encode(e, c.args)
		}
		f.Add(oncrpc.EncodeCall(&oncrpc.CallHeader{XID: 7 + c.proc, Prog: Program, Vers: Version, Proc: c.proc,
			Cred: oncrpc.Auth{Flavor: oncrpc.AuthSys, Machine: "fuzz"}}, e.Bytes()))
	}
	f.Add(oncrpc.EncodeCall(&oncrpc.CallHeader{XID: 5, Prog: MountProgram, Vers: MountVersion}, nil))
	f.Add([]byte{0xde, 0xad})
	f.Fuzz(func(t *testing.T, call []byte) {
		sim := des.New()
		d := oncrpc.NewDispatcher()
		d.Register(NewServer(vfs.NewNamespace(sim, vfs.NewMemStore(false), 1<<30), ServerConfig{}))
		d.EnableDRC(8)
		sim.Spawn("fuzz", func(p *des.Proc) {
			for _, room := range []int{0, 64} {
				opts := oncrpc.DispatchOpts{Room: room}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				reply, _, err := d.Dispatch(p, call, opts)
				runtime.ReadMemStats(&after)
				if err != nil {
					// A rejection changes nothing but BadCalls, and carves a
					// denied call's reply from the dispatcher's block, so it is
					// measured over several runs: the fuzzing engine's own
					// goroutines allocate now and then while one runs.
					if n := testing.AllocsPerRun(10, func() { d.Dispatch(p, call, opts) }); n > 1 {
						t.Errorf("room %d: rejecting a %d-byte frame (%v) allocated %.0f objects", room, len(call), err, n)
					}
					if reply == nil {
						continue
					}
					if xid, _, _, derr := oncrpc.DecodeReply(reply[room:]); derr != oncrpc.ErrDenied || xid != binary.BigEndian.Uint32(call) || !bytes.Equal(reply[:room], make([]byte, room)) {
						t.Errorf("room %d: a call rejected with %v is answered %x: XID %#x, %v; want MSG_DENIED to %#x behind a zero room", room, err, reply, xid, derr, binary.BigEndian.Uint32(call))
					}
					continue
				}
				if n := after.Mallocs - before.Mallocs; n > uint64(64+len(call)) {
					t.Errorf("room %d: dispatching a %d-byte call allocated %d objects", room, len(call), n)
				}
				if !bytes.Equal(reply[:room], make([]byte, room)) {
					t.Errorf("room %d: written to: %x", room, reply[:room])
				}
				xid, _, _, err := oncrpc.DecodeReply(reply[room:])
				if err != nil || xid != binary.BigEndian.Uint32(call) {
					t.Errorf("room %d: reply %x: XID %#x, err %v; the call's XID is %#x", room, reply[room:], xid, err, binary.BigEndian.Uint32(call))
				}
			}
		})
		sim.Run()
	})
}
