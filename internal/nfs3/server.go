package nfs3

import (
	"repro/internal/cpu"
	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ServerConfig tunes the NFS service.
type ServerConfig struct {
	// FSID identifies the exported file system in handles and fattr3.
	FSID uint64
	// CPU, when non-nil, is charged PerOpCPU for every procedure plus copy
	// cost for moving payload between the file system and staging buffers.
	CPU *cpu.Model
	// PerOpCPU is the protocol + VFS processing cost per call.
	PerOpCPU des.Duration
}

// maxTransfer bounds READ and WRITE transfer sizes (rtmax / wtmax).
const maxTransfer = 1 << 20

func (c *ServerConfig) defaults() {
	if c.FSID == 0 {
		c.FSID = 0x5eed
	}
}

// Server is the NFSv3 service: it decodes procedures, drives a vfs.FS, and
// encodes replies. It implements oncrpc.Service.
type Server struct {
	fs        vfs.FS
	cfg       ServerConfig
	writeVerf uint64

	// codec is what the handlers decode arguments and encode results
	// through. It lives here, not on a handler's stack, because an XDR method
	// called through a func value would move it to the heap on every call;
	// the simulation runs one process at a time and no XDR method blocks, so
	// no two calls use it at once.
	codec xdr.Codec

	// Ops counts handled procedures by number.
	Ops []int64

	// dirents and entries are what readdir fills, kept between calls:
	// nothing waits between its ReadDir and its encode.
	dirents []vfs.DirEntry
	entries []DirEntry3

	calls des.FreeList[call] // HandleThen's states between calls, zeroed
}

var _ oncrpc.Service = (*Server)(nil)

// NewServer exports fs over NFSv3.
func NewServer(fs vfs.FS, cfg ServerConfig) *Server {
	cfg.defaults()
	return &Server{fs: fs, cfg: cfg, writeVerf: 0xc0ffee ^ cfg.FSID, Ops: make([]int64, len(procs))}
}

// Restart bumps the write verifier to a fresh epoch-derived value, as a
// rebooted NFSv3 server must: any client comparing WRITE/COMMIT verifiers
// across the restart sees the change and knows its uncommitted unstable
// writes may have been lost. File handles (FSID+FileID) and the exported
// tree survive — NFSv3 servers are otherwise stateless.
func (s *Server) Restart(epoch uint64) {
	s.writeVerf = (0xc0ffee ^ s.cfg.FSID) + epoch*0x9e3779b97f4a7c15
}

// WriteVerf returns the current write verifier (tests compare it across
// restarts).
func (s *Server) WriteVerf() uint64 { return s.writeVerf }

// Name implements oncrpc.Service.
func (s *Server) Name() string { return "nfs3" }

// Program implements oncrpc.Service.
func (s *Server) Program() uint32 { return Program }

// Version implements oncrpc.Service.
func (s *Server) Version() uint32 { return Version }

// ProcName implements oncrpc.ProcNamer so dispatch trace spans carry the
// NFS procedure name instead of the bare service name.
func (s *Server) ProcName(proc uint32) string { return ProcName(proc) }

// NonIdempotent implements oncrpc.IdempotencyClassifier: the procedures
// that mutate namespace or data in ways a replay would corrupt (a
// re-executed REMOVE returns ENOENT, a re-executed WRITE can clobber newer
// data, a re-executed CREATE with exclusive semantics fails), so the DRC must
// answer their retransmissions from cache. Reads and attribute queries are
// safe to re-execute and stay out of the cache — their bulk-carrying
// replies reference transport staging that is recycled after the first
// send.
func (s *Server) NonIdempotent(proc uint32) bool {
	return int(proc) < len(procs) && procs[proc].nonIdempotent
}

// RootFH returns the export root handle.
func (s *Server) RootFH() FH {
	return FH{FSID: s.cfg.FSID, FileID: uint64(s.fs.Root())}
}

func (s *Server) mkFH(id vfs.FileID) FH {
	return FH{FSID: s.cfg.FSID, FileID: uint64(id)}
}

func (s *Server) postAttr(id vfs.FileID) PostOpAttr {
	a, err := s.fs.GetAttr(nil, id)
	if err != nil {
		return PostOpAttr{}
	}
	return PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, a)}
}

// preOp captures wcc_attr before a mutation so the reply can carry full
// weak-cache-consistency data.
func (s *Server) preOp(id vfs.FileID) (WccAttr, bool) {
	a, err := s.fs.GetAttr(nil, id)
	if err != nil {
		return WccAttr{}, false
	}
	return WccAttr{
		Size:  uint64(a.Size),
		Mtime: TimeFromSim(a.Mtime),
		Ctime: TimeFromSim(a.Ctime),
	}, true
}

// wccFrom builds wcc_data from a captured pre-op state plus fresh post-op
// attributes.
func (s *Server) wccFrom(id vfs.FileID, pre WccAttr, ok bool) WccData {
	return WccData{PrePresent: ok, Pre: pre, Post: s.postAttr(id)}
}

// procs describes the procedures by number: the name, whether a replay
// would corrupt, and the handler (nil: void results).
//
// READ, WRITE and COMMIT reach the store, which may wait for the disk: their
// handlers are chains (then), which HandleThen runs instead of handle.
var procs = [...]struct {
	name          string
	nonIdempotent bool
	handle        func(s *Server, req *oncrpc.ServerRequest)
	then          func(s *Server, c *call)
}{
	ProcNull:        {"NULL", false, nil, nil},
	ProcGetAttr:     {"GETATTR", false, (*Server).getattr, nil},
	ProcSetAttr:     {"SETATTR", true, (*Server).setattr, nil},
	ProcLookup:      {"LOOKUP", false, (*Server).lookup, nil},
	ProcAccess:      {"ACCESS", false, (*Server).access, nil},
	ProcReadLink:    {"READLINK", false, (*Server).readlink, nil},
	ProcRead:        {"READ", false, nil, (*Server).read},
	ProcWrite:       {"WRITE", true, nil, (*Server).write},
	ProcCreate:      {"CREATE", true, (*Server).create, nil},
	ProcMkdir:       {"MKDIR", true, (*Server).mkdir, nil},
	ProcSymlink:     {"SYMLINK", true, (*Server).symlink, nil},
	ProcMknod:       {"MKNOD", true, (*Server).mknod, nil},
	ProcRemove:      {"REMOVE", true, (*Server).remove, nil},
	ProcRmdir:       {"RMDIR", true, (*Server).remove, nil},
	ProcRename:      {"RENAME", true, (*Server).rename, nil},
	ProcLink:        {"LINK", true, (*Server).link, nil},
	ProcReadDir:     {"READDIR", false, (*Server).readdir, nil},
	ProcReadDirPlus: {"READDIRPLUS", false, (*Server).readdir, nil},
	ProcFSStat:      {"FSSTAT", false, (*Server).fsstat, nil},
	ProcFSInfo:      {"FSINFO", false, (*Server).fsinfo, nil},
	ProcPathConf:    {"PATHCONF", false, (*Server).pathconf, nil},
	ProcCommit:      {"COMMIT", false, nil, (*Server).commit},
}

// call is the state of one HandleThen in flight, kept for reuse by the
// server: the request, where the response goes, and what a READ, WRITE or
// COMMIT carries across its copy charge and its store call.
type call struct {
	s      *Server
	req    *oncrpc.ServerRequest
	resp   *oncrpc.ServerResponse
	fn     func(any)
	arg    any
	charge cpu.Charge
	op     vfs.Op

	id     vfs.FileID
	off    int64
	count  int
	buf    []byte // READ's destination, WRITE's data
	bulk   *oncrpc.Bulk
	stable uint32 // WRITE's stable_how
	pre    WccAttr
	preOK  bool
}

// HandleThen implements oncrpc.Service: the procedure's handler decodes the
// arguments, runs them against the file system, and appends the encoded
// results to req.Reply. The CPU charges and the store calls of READ, WRITE
// and COMMIT, which may wait for the disk, are chained.
func (s *Server) HandleThen(req *oncrpc.ServerRequest, resp *oncrpc.ServerResponse, fn func(any), arg any) {
	c := s.calls.Get() // zeroed by done
	c.s, c.req, c.resp, c.fn, c.arg = s, req, resp, fn, arg
	if s.cfg.CPU != nil {
		s.cfg.CPU.WorkThen(&c.charge, s.cfg.PerOpCPU, handleCall, c)
		return
	}
	handleCall(c)
}

func handleCall(a any) {
	c := a.(*call)
	s, req := c.s, c.req
	proc := req.Header.Proc
	if proc >= uint32(len(procs)) {
		c.done(oncrpc.ProcUnavail, nil)
		return
	}
	s.Ops[proc]++
	h := &procs[proc]
	if h.then != nil {
		h.then(s, c)
		return
	}
	if h.handle != nil {
		h.handle(s, req)
	}
	c.done(oncrpc.Success, nil)
}

// done answers the call and takes its state back.
func (c *call) done(stat oncrpc.AcceptStat, bulk *oncrpc.Bulk) {
	*c.resp = oncrpc.ServerResponse{Stat: stat, Bulk: bulk}
	s, fn, arg := c.s, c.fn, c.arg
	*c = call{}
	s.calls.Put(c)
	fn(arg)
}

// decode decodes a call's arguments through args and checks the handles fhs
// points at in them. When either fails it writes results holding only the
// status, NFS3ERR_INVAL or NFS3ERR_BADHANDLE, through res and *st, and
// returns false.
func (s *Server) decode(req *oncrpc.ServerRequest, args, res func(*xdr.Codec), st *Status, fhs ...*FH) bool {
	s.codec = xdr.DecodeFrom(req.Args)
	args(&s.codec)
	if s.codec.Err() != nil {
		*st = ErrInval
	}
	for _, h := range fhs {
		if *st == OK && h.FSID != s.cfg.FSID {
			*st = ErrBadHandle
		}
	}
	if *st != OK {
		s.reply(req, res)
	}
	return *st == OK
}

// reply appends the results res describes to req.Reply.
func (s *Server) reply(req *oncrpc.ServerRequest, res func(*xdr.Codec)) {
	s.codec = xdr.EncodeTo(&req.Reply)
	res(&s.codec)
}

func (s *Server) getattr(req *oncrpc.ServerRequest) {
	var args GetAttrArgs
	var res GetAttrRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		a, err := s.fs.GetAttr(nil, args.FH.file())
		if res.Status = StatusFromVFS(err); err == nil {
			res.Attr = AttrFromVFS(s.cfg.FSID, a)
		}
		s.reply(req, res.XDR)
	}
}

func (s *Server) setattr(req *oncrpc.ServerRequest) {
	var args SetAttrArgs
	var res WccRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		return
	}
	id := args.FH.file()
	pre, preOK := s.preOp(id)
	if args.Guard != nil && preOK && *args.Guard != pre.Ctime {
		// sattrguard3 mismatch: someone changed the object since the client
		// sampled its ctime.
		res.Status = ErrNotSync
	} else {
		sa := vfs.SetAttr{Mode: args.Attr.Mode, UID: args.Attr.UID, GID: args.Attr.GID, SetTime: args.Attr.Mtime.How != DontChange}
		if args.Attr.Size != nil {
			sz := int64(*args.Attr.Size)
			sa.Size = &sz
		}
		_, err := s.fs.SetAttr(nil, id, sa)
		res.Status = StatusFromVFS(err)
	}
	res.Wcc = s.wccFrom(id, pre, preOK)
	s.reply(req, res.XDR)
}

func (s *Server) lookup(req *oncrpc.ServerRequest) {
	var args DirOpArgs
	var res LookupRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Dir) {
		dir := args.Dir.file()
		id, attr, err := s.fs.Lookup(nil, dir, args.Name)
		res.Status, res.DirAttr = StatusFromVFS(err), s.postAttr(dir)
		if err == nil {
			res.Object = s.mkFH(id)
			res.ObjAttr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
		}
		s.reply(req, res.XDR)
	}
}

func (s *Server) access(req *oncrpc.ServerRequest) {
	var args AccessArgs
	var res AccessRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		// The simulated export has no permission model: grant what was asked.
		res.Attr, res.Access = s.postAttr(args.FH.file()), args.Access
		s.reply(req, res.XDR)
	}
}

func (s *Server) readlink(req *oncrpc.ServerRequest) {
	var args GetAttrArgs
	var res ReadLinkRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		id := args.FH.file()
		target, err := s.fs.ReadLink(nil, id)
		res = ReadLinkRes{Status: StatusFromVFS(err), Attr: s.postAttr(id), Path: target}
		s.reply(req, res.XDR)
	}
}

// read runs READ: payload goes to the transport-provided staging buffer
// (req.ReplyBuf) when present, charged as one server-side copy out of the
// file system.
func (s *Server) read(c *call) {
	req := c.req
	var args ReadArgs
	var res ReadRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		c.done(oncrpc.Success, nil)
		return
	}
	c.id, c.off = args.FH.file(), int64(args.Offset)
	c.count = min(int(args.Count), maxTransfer)
	if req.RecvBulkCap > 0 && c.count > req.RecvBulkCap {
		c.count = req.RecvBulkCap
	}
	c.bulk = req.ReplyBuf
	if c.bulk == nil {
		c.bulk = &oncrpc.Bulk{Data: make([]byte, c.count)}
	}
	if c.bulk.Data != nil {
		c.buf = c.bulk.Data[:min(c.count, len(c.bulk.Data))]
	}
	s.fs.ReadThen(&c.op, c.id, c.off, c.count, c.buf, readStored, c)
}

func readStored(a any) {
	c := a.(*call)
	s := c.s
	if err := c.op.Err; err != nil {
		res := ReadRes{Status: StatusFromVFS(err), Attr: s.postAttr(c.id)}
		s.reply(c.req, res.XDR)
		c.done(oncrpc.Success, nil)
		return
	}
	n := c.op.N
	c.bulk.Len, c.count = n, n
	if s.cfg.CPU != nil {
		// file system -> staging buffer
		s.cfg.CPU.WorkThen(&c.charge, s.cfg.CPU.CopyCost(n), readCopied, c)
		return
	}
	readCopied(c)
}

func readCopied(a any) {
	c := a.(*call)
	s := c.s
	res := ReadRes{Status: OK, Attr: s.postAttr(c.id), Count: uint32(c.count), EOF: c.op.EOF}
	s.reply(c.req, res.XDR)
	c.done(oncrpc.Success, c.bulk)
}

func (s *Server) write(c *call) {
	req := c.req
	var args WriteArgs
	var res WriteRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		c.done(oncrpc.Success, nil)
		return
	}
	c.id, c.off, c.stable = args.FH.file(), int64(args.Offset), args.Stable
	if bulk := req.Bulk; bulk != nil {
		c.count = min(int(args.Count), bulk.Len, maxTransfer)
		if bulk.Data != nil {
			c.buf = bulk.Data[:c.count]
		}
	}
	if s.cfg.CPU != nil {
		// staging buffer -> file system
		s.cfg.CPU.WorkThen(&c.charge, s.cfg.CPU.CopyCost(c.count), writeCopied, c)
		return
	}
	writeCopied(c)
}

func writeCopied(a any) {
	c := a.(*call)
	s := c.s
	c.pre, c.preOK = s.preOp(c.id)
	s.fs.WriteThen(&c.op, c.id, c.off, c.count, c.buf, c.stable == FileSync, writeStored, c)
}

func writeStored(a any) {
	c := a.(*call)
	s := c.s
	res := WriteRes{
		Status: StatusFromVFS(c.op.Err), Wcc: s.wccFrom(c.id, c.pre, c.preOK),
		Count: uint32(c.op.N), Committed: c.stable, Verf: s.writeVerf,
	}
	s.reply(c.req, res.XDR)
	c.done(oncrpc.Success, nil)
}

func (s *Server) create(req *oncrpc.ServerRequest) {
	var args CreateArgs
	var res CreateRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Where.Dir) {
		dir := args.Where.Dir.file()
		pre, preOK := s.preOp(dir)
		id, attr, err := s.fs.Create(nil, dir, args.Where.Name, modeOr(args.Attr.Mode, 0644))
		s.made(req, dir, pre, preOK, id, attr, err)
	}
}

func (s *Server) mkdir(req *oncrpc.ServerRequest) {
	var args MkdirArgs
	var res CreateRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Where.Dir) {
		dir := args.Where.Dir.file()
		pre, preOK := s.preOp(dir)
		id, attr, err := s.fs.Mkdir(nil, dir, args.Where.Name, modeOr(args.Attr.Mode, 0755))
		s.made(req, dir, pre, preOK, id, attr, err)
	}
}

func (s *Server) symlink(req *oncrpc.ServerRequest) {
	var args SymlinkArgs
	var res CreateRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Where.Dir) {
		dir := args.Where.Dir.file()
		pre, preOK := s.preOp(dir)
		id, attr, err := s.fs.Symlink(nil, dir, args.Where.Name, args.Target)
		s.made(req, dir, pre, preOK, id, attr, err)
	}
}

func modeOr(mode *uint32, def uint32) uint32 {
	if mode != nil {
		return *mode
	}
	return def
}

// made writes the results of CREATE, MKDIR or SYMLINK in dir, which made id.
func (s *Server) made(req *oncrpc.ServerRequest, dir vfs.FileID, pre WccAttr, preOK bool, id vfs.FileID, attr vfs.Attr, err error) {
	res := CreateRes{Status: StatusFromVFS(err), DirWcc: s.wccFrom(dir, pre, preOK)}
	if err == nil {
		res.FHPresent, res.FH = true, s.mkFH(id)
		res.Attr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
	}
	s.reply(req, res.XDR)
}

// mknod answers MKNOD without decoding it: the file system has no special
// files.
func (s *Server) mknod(req *oncrpc.ServerRequest) {
	s.reply(req, (&CreateRes{Status: ErrNotSupp}).XDR)
}

// remove runs REMOVE and RMDIR.
func (s *Server) remove(req *oncrpc.ServerRequest) {
	var args DirOpArgs
	var res WccRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Dir) {
		dir := args.Dir.file()
		pre, preOK := s.preOp(dir)
		var err error
		if req.Header.Proc == ProcRmdir {
			err = s.fs.Rmdir(nil, dir, args.Name)
		} else {
			err = s.fs.Remove(nil, dir, args.Name)
		}
		res = WccRes{Status: StatusFromVFS(err), Wcc: s.wccFrom(dir, pre, preOK)}
		s.reply(req, res.XDR)
	}
}

func (s *Server) rename(req *oncrpc.ServerRequest) {
	var args RenameArgs
	var res RenameRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.From.Dir, &args.To.Dir) {
		from, to := args.From.Dir.file(), args.To.Dir.file()
		fromPre, fromOK := s.preOp(from)
		toPre, toOK := s.preOp(to)
		err := s.fs.Rename(nil, from, args.From.Name, to, args.To.Name)
		res = RenameRes{
			Status:  StatusFromVFS(err),
			FromWcc: s.wccFrom(from, fromPre, fromOK),
			ToWcc:   s.wccFrom(to, toPre, toOK),
		}
		s.reply(req, res.XDR)
	}
}

func (s *Server) link(req *oncrpc.ServerRequest) {
	var args LinkArgs
	var res LinkRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH, &args.Link.Dir) {
		id, dir := args.FH.file(), args.Link.Dir.file()
		pre, preOK := s.preOp(dir)
		_, err := s.fs.Link(nil, id, dir, args.Link.Name)
		res = LinkRes{Status: StatusFromVFS(err), Attr: s.postAttr(id), LinkWcc: s.wccFrom(dir, pre, preOK)}
		s.reply(req, res.XDR)
	}
}

// readdir runs READDIR and READDIRPLUS. A page ends at the entry cap, or
// before the entry that would take the results past count (RFC 1813
// §3.3.16–17): a count too small for one entry is NFS3ERR_TOOSMALL.
func (s *Server) readdir(req *oncrpc.ServerRequest) {
	args := ReadDirArgs{Plus: req.Header.Proc == ProcReadDirPlus}
	res := ReadDirRes{Plus: args.Plus}
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.Dir) {
		return
	}
	dir := args.Dir.file()
	// Entry cap from the reply byte budget: ~64 bytes per plain entry,
	// ~160 with attributes and handle.
	per := 64
	if args.Plus {
		per = 160
	}
	var err error
	s.dirents, res.EOF, err = s.fs.ReadDir(nil, dir, int64(args.Cookie), max(int(args.Count)/per, 1), s.dirents[:0])
	res.Status, res.DirAttr, res.Entries = StatusFromVFS(err), s.postAttr(dir), s.entries[:0]
	size := 4 + res.DirAttr.size() + 8 + 4 + 4 // status, dir_attributes, cookieverf, list end, eof
	for _, ent := range s.dirents {
		e3 := DirEntry3{FileID: uint64(ent.FileID), Name: ent.Name, Cookie: uint64(ent.Cookie)}
		if args.Plus {
			e3.Attr = s.postAttr(ent.FileID)
			e3.FHPresent = true
			e3.FH = s.mkFH(ent.FileID)
		}
		if size += e3.size(args.Plus); size > int(args.Count) {
			res.EOF = false
			break
		}
		res.Entries = append(res.Entries, e3)
	}
	if len(res.Entries) == 0 && len(s.dirents) > 0 {
		res.Status = ErrTooSmall
	}
	s.entries = res.Entries
	s.reply(req, res.XDR)
}

func (s *Server) fsstat(req *oncrpc.ServerRequest) {
	var args GetAttrArgs
	var res FSStatRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		total, free := s.fs.FSStat()
		res = FSStatRes{
			Status: OK, Attr: s.postAttr(args.FH.file()),
			TBytes: uint64(total), FBytes: uint64(free), ABytes: uint64(free),
			TFiles: 1 << 20, FFiles: 1 << 19, AFiles: 1 << 19,
		}
		s.reply(req, res.XDR)
	}
}

func (s *Server) fsinfo(req *oncrpc.ServerRequest) {
	var args GetAttrArgs
	var res FSInfoRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		res = FSInfoRes{
			Status: OK, Attr: s.postAttr(args.FH.file()),
			RTMax: maxTransfer, RTPref: maxTransfer,
			WTMax: maxTransfer, WTPref: maxTransfer,
			DTPref: 64 << 10, MaxFileSize: 1 << 62,
		}
		s.reply(req, res.XDR)
	}
}

func (s *Server) pathconf(req *oncrpc.ServerRequest) {
	var args GetAttrArgs
	var res PathConfRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		res = PathConfRes{Status: OK, Attr: s.postAttr(args.FH.file()), LinkMax: 32000, NameMax: vfs.MaxNameLen}
		s.reply(req, res.XDR)
	}
}

func (s *Server) commit(c *call) {
	req := c.req
	var args CommitArgs
	var res CommitRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		c.done(oncrpc.Success, nil)
		return
	}
	c.id, c.off, c.count = args.FH.file(), int64(args.Offset), int(args.Count)
	c.pre, c.preOK = s.preOp(c.id)
	s.fs.CommitThen(&c.op, c.id, c.off, c.count, commitStored, c)
}

func commitStored(a any) {
	c := a.(*call)
	s := c.s
	res := CommitRes{Status: StatusFromVFS(c.op.Err), Wcc: s.wccFrom(c.id, c.pre, c.preOK), Verf: s.writeVerf}
	s.reply(c.req, res.XDR)
	c.done(oncrpc.Success, nil)
}
