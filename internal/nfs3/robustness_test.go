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

// Robustness: every decoder must return an error — never panic, never
// fabricate values — for arbitrarily truncated input, and the server must
// answer garbage argument bytes with a protocol-level error status.

func TestDecodersSurviveTruncation(t *testing.T) {
	// Build one valid encoding of each message, then decode every prefix.
	type enc struct {
		name  string
		bytes []byte
		dec   func([]byte) error
	}
	fh := FH{FSID: 1, FileID: 2}
	encode := func(fn func(e *xdr.Encoder)) []byte {
		e := xdr.NewEncoder(nil)
		fn(e)
		return e.Bytes()
	}
	mode := uint32(0644)
	size := uint64(100)
	msgs := []enc{
		{"GetAttrArgs", encode(func(e *xdr.Encoder) { (&GetAttrArgs{FH: fh}).Encode(e) }),
			func(b []byte) error { _, err := DecodeGetAttrArgs(xdr.NewDecoder(b)); return err }},
		{"SetAttrArgs", encode(func(e *xdr.Encoder) {
			(&SetAttrArgs{FH: fh, Attr: SAttr{Mode: &mode, Size: &size, SetMtime: true}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeSetAttrArgs(xdr.NewDecoder(b)); return err }},
		{"DirOpArgs", encode(func(e *xdr.Encoder) { (&DirOpArgs{Dir: fh, Name: "file"}).Encode(e) }),
			func(b []byte) error { _, err := DecodeDirOpArgs(xdr.NewDecoder(b)); return err }},
		{"AccessArgs", encode(func(e *xdr.Encoder) { (&AccessArgs{FH: fh, Access: 7}).Encode(e) }),
			func(b []byte) error { _, err := DecodeAccessArgs(xdr.NewDecoder(b)); return err }},
		{"ReadArgs", encode(func(e *xdr.Encoder) { (&ReadArgs{FH: fh, Offset: 1, Count: 2}).Encode(e) }),
			func(b []byte) error { _, err := DecodeReadArgs(xdr.NewDecoder(b)); return err }},
		{"WriteArgs", encode(func(e *xdr.Encoder) { (&WriteArgs{FH: fh, Offset: 1, Count: 2}).Encode(e) }),
			func(b []byte) error { _, err := DecodeWriteArgs(xdr.NewDecoder(b)); return err }},
		{"CreateArgs", encode(func(e *xdr.Encoder) {
			(&CreateArgs{Where: DirOpArgs{Dir: fh, Name: "x"}, Attr: SAttr{Mode: &mode}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeCreateArgs(xdr.NewDecoder(b)); return err }},
		{"RenameArgs", encode(func(e *xdr.Encoder) {
			(&RenameArgs{From: DirOpArgs{Dir: fh, Name: "a"}, To: DirOpArgs{Dir: fh, Name: "b"}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeRenameArgs(xdr.NewDecoder(b)); return err }},
		{"LinkArgs", encode(func(e *xdr.Encoder) {
			(&LinkArgs{FH: fh, Link: DirOpArgs{Dir: fh, Name: "l"}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeLinkArgs(xdr.NewDecoder(b)); return err }},
		{"ReadDirArgs", encode(func(e *xdr.Encoder) {
			(&ReadDirArgs{Dir: fh, Cookie: 3, Count: 512}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeReadDirArgs(xdr.NewDecoder(b), false); return err }},
		{"CommitArgs", encode(func(e *xdr.Encoder) { (&CommitArgs{FH: fh, Offset: 9, Count: 8}).Encode(e) }),
			func(b []byte) error { _, err := DecodeCommitArgs(xdr.NewDecoder(b)); return err }},
		{"GetAttrRes", encode(func(e *xdr.Encoder) {
			(&GetAttrRes{Status: OK, Attr: FAttr{Type: TypeReg}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeGetAttrRes(xdr.NewDecoder(b)); return err }},
		{"LookupRes", encode(func(e *xdr.Encoder) {
			(&LookupRes{Status: OK, Object: fh, ObjAttr: PostOpAttr{Present: true, Attr: FAttr{}}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeLookupRes(xdr.NewDecoder(b)); return err }},
		{"WriteRes", encode(func(e *xdr.Encoder) {
			(&WriteRes{Status: OK, Count: 1, Verf: 2, Wcc: WccData{PrePresent: true}}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeWriteRes(xdr.NewDecoder(b)); return err }},
		{"ReadDirRes", encode(func(e *xdr.Encoder) {
			(&ReadDirRes{Status: OK, Entries: []DirEntry3{{FileID: 1, Name: "n", Cookie: 1}}, EOF: true}).Encode(e)
		}),
			func(b []byte) error { _, err := DecodeReadDirRes(xdr.NewDecoder(b), false); return err }},
		{"FSStatRes", encode(func(e *xdr.Encoder) { (&FSStatRes{Status: OK, TBytes: 1}).Encode(e) }),
			func(b []byte) error { _, err := DecodeFSStatRes(xdr.NewDecoder(b)); return err }},
		{"FSInfoRes", encode(func(e *xdr.Encoder) { (&FSInfoRes{Status: OK, RTMax: 1}).Encode(e) }),
			func(b []byte) error { _, err := DecodeFSInfoRes(xdr.NewDecoder(b)); return err }},
		{"PathConfRes", encode(func(e *xdr.Encoder) { (&PathConfRes{Status: OK, LinkMax: 1}).Encode(e) }),
			func(b []byte) error { _, err := DecodePathConfRes(xdr.NewDecoder(b)); return err }},
		{"CommitRes", encode(func(e *xdr.Encoder) { (&CommitRes{Status: OK, Verf: 7}).Encode(e) }),
			func(b []byte) error { _, err := DecodeCommitRes(xdr.NewDecoder(b)); return err }},
	}
	for _, m := range msgs {
		// The full message must decode cleanly...
		if err := m.dec(m.bytes); err != nil {
			t.Errorf("%s: full decode failed: %v", m.name, err)
			continue
		}
		// ...and every strict prefix must error without panicking.
		for cut := 0; cut < len(m.bytes); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic at prefix %d: %v", m.name, cut, r)
					}
				}()
				if err := m.dec(m.bytes[:cut]); err == nil && cut < len(m.bytes)-3 {
					// Trailing-padding prefixes may still decode; anything
					// shorter must not.
					t.Errorf("%s: prefix %d/%d decoded without error", m.name, cut, len(m.bytes))
				}
			}()
		}
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
			if srv.Handle(p, req).Stat != oncrpc.Success {
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

// FuzzDispatch sends a raw call through Dispatcher.Dispatch to the NFS server
// (duplicate request cache on) twice, behind a room of 0 and of 64 bytes, as
// the stream and RDMA transports ask for it. On any frame it must not panic
// and must allocate at most 64 objects plus one per byte of frame; a call that
// decodes gets a reply that DecodeReply reads, with the call's XID, and the
// room in front of it left zero.
func FuzzDispatch(f *testing.F) {
	root := FH{FSID: 0x5eed, FileID: 1}
	mode := uint32(0644)
	for _, c := range []struct {
		proc uint32
		args func(*xdr.Encoder)
	}{
		{ProcNull, nil},
		{ProcGetAttr, (&GetAttrArgs{FH: root}).Encode},
		{ProcLookup, (&DirOpArgs{Dir: root, Name: "file"}).Encode},
		{ProcRead, (&ReadArgs{FH: root, Offset: 1, Count: 8192}).Encode},
		{ProcWrite, (&WriteArgs{FH: root, Offset: 1, Count: 2}).Encode},
		{ProcCreate, (&CreateArgs{Where: DirOpArgs{Dir: root, Name: "x"}, Attr: SAttr{Mode: &mode}}).Encode},
		{ProcRename, (&RenameArgs{From: DirOpArgs{Dir: root, Name: "a"}, To: DirOpArgs{Dir: root, Name: "b"}}).Encode},
		{ProcReadDir, (&ReadDirArgs{Dir: root, Cookie: 3, Count: 512}).Encode},
		{ProcCommit, (&CommitArgs{FH: root, Offset: 9, Count: 8}).Encode},
		{99, nil},
	} {
		e := xdr.NewEncoder(nil)
		if c.args != nil {
			c.args(e)
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
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				reply, _, err := d.Dispatch(p, call, oncrpc.DispatchOpts{Room: room})
				runtime.ReadMemStats(&after)
				if n := after.Mallocs - before.Mallocs; n > uint64(64+len(call)) {
					t.Errorf("room %d: dispatching a %d-byte call allocated %d objects", room, len(call), n)
				}
				if err != nil {
					continue
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
