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

func (s *Server) postAttr(p *des.Proc, id vfs.FileID) PostOpAttr {
	a, err := s.fs.GetAttr(p, id)
	if err != nil {
		return PostOpAttr{}
	}
	return PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, a)}
}

// preOp captures wcc_attr before a mutation so the reply can carry full
// weak-cache-consistency data.
func (s *Server) preOp(p *des.Proc, id vfs.FileID) (WccAttr, bool) {
	a, err := s.fs.GetAttr(p, id)
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
func (s *Server) wccFrom(p *des.Proc, id vfs.FileID, pre WccAttr, ok bool) WccData {
	return WccData{PrePresent: ok, Pre: pre, Post: s.postAttr(p, id)}
}

// procs describes the procedures by number: the name, the size of the
// largest results without a variable-length tail (all optional attributes
// present; READLINK's path and READDIR[PLUS]'s entries grow the reply beyond
// it), whether a replay would corrupt, and the handler (nil: void results).
var procs = [...]struct {
	name          string
	resultsSize   int
	nonIdempotent bool
	handle        func(s *Server, p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk
}{
	ProcNull:        {"NULL", 0, false, nil},
	ProcGetAttr:     {"GETATTR", 88, false, (*Server).getattr},
	ProcSetAttr:     {"SETATTR", 120, true, (*Server).setattr},
	ProcLookup:      {"LOOKUP", 200, false, (*Server).lookup},
	ProcAccess:      {"ACCESS", 96, false, (*Server).access},
	ProcReadLink:    {"READLINK", 96, false, (*Server).readlink},
	ProcRead:        {"READ", 104, false, (*Server).read},
	ProcWrite:       {"WRITE", 136, true, (*Server).write},
	ProcCreate:      {"CREATE", 232, true, (*Server).create},
	ProcMkdir:       {"MKDIR", 232, true, (*Server).mkdir},
	ProcSymlink:     {"SYMLINK", 232, true, (*Server).symlink},
	ProcMknod:       {"MKNOD", 232, true, (*Server).mknod},
	ProcRemove:      {"REMOVE", 120, true, (*Server).remove},
	ProcRmdir:       {"RMDIR", 120, true, (*Server).remove},
	ProcRename:      {"RENAME", 236, true, (*Server).rename},
	ProcLink:        {"LINK", 208, true, (*Server).link},
	ProcReadDir:     {"READDIR", 108, false, (*Server).readdir},
	ProcReadDirPlus: {"READDIRPLUS", 108, false, (*Server).readdir},
	ProcFSStat:      {"FSSTAT", 144, false, (*Server).fsstat},
	ProcFSInfo:      {"FSINFO", 140, false, (*Server).fsinfo},
	ProcPathConf:    {"PATHCONF", 116, false, (*Server).pathconf},
	ProcCommit:      {"COMMIT", 128, false, (*Server).commit},
}

// ResultsSize implements oncrpc.ResultsSizer.
func (s *Server) ResultsSize(proc uint32) int {
	if int(proc) < len(procs) {
		return procs[proc].resultsSize
	}
	return 0
}

// Handle implements oncrpc.Service: the procedure's handler decodes the
// arguments, runs them against the file system, and appends the encoded
// results to req.Reply.
func (s *Server) Handle(p *des.Proc, req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	if s.cfg.CPU != nil {
		s.cfg.CPU.Work(p, s.cfg.PerOpCPU)
	}
	proc := req.Header.Proc
	if proc >= uint32(len(procs)) {
		return oncrpc.ServerResponse{Stat: oncrpc.ProcUnavail}
	}
	s.Ops[proc]++
	var bulk *oncrpc.Bulk
	if h := procs[proc].handle; h != nil {
		bulk = h(s, p, req)
	}
	return oncrpc.ServerResponse{Stat: oncrpc.Success, Bulk: bulk}
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

func (s *Server) getattr(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args GetAttrArgs
	var res GetAttrRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		a, err := s.fs.GetAttr(p, args.FH.file())
		if res.Status = StatusFromVFS(err); err == nil {
			res.Attr = AttrFromVFS(s.cfg.FSID, a)
		}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) setattr(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args SetAttrArgs
	var res WccRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		return nil
	}
	id := args.FH.file()
	pre, preOK := s.preOp(p, id)
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
		_, err := s.fs.SetAttr(p, id, sa)
		res.Status = StatusFromVFS(err)
	}
	res.Wcc = s.wccFrom(p, id, pre, preOK)
	s.reply(req, res.XDR)
	return nil
}

func (s *Server) lookup(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args DirOpArgs
	var res LookupRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Dir) {
		dir := args.Dir.file()
		id, attr, err := s.fs.Lookup(p, dir, args.Name)
		res.Status, res.DirAttr = StatusFromVFS(err), s.postAttr(p, dir)
		if err == nil {
			res.Object = s.mkFH(id)
			res.ObjAttr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
		}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) access(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args AccessArgs
	var res AccessRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		// The simulated export has no permission model: grant what was asked.
		res.Attr, res.Access = s.postAttr(p, args.FH.file()), args.Access
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) readlink(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args GetAttrArgs
	var res ReadLinkRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		id := args.FH.file()
		target, err := s.fs.ReadLink(p, id)
		res = ReadLinkRes{Status: StatusFromVFS(err), Attr: s.postAttr(p, id), Path: target}
		s.reply(req, res.XDR)
	}
	return nil
}

// read runs READ: payload goes to the transport-provided staging buffer
// (req.ReplyBuf) when present, charged as one server-side copy out of the
// file system.
func (s *Server) read(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args ReadArgs
	var res ReadRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		return nil
	}
	id := args.FH.file()
	count := min(int(args.Count), maxTransfer)
	if req.RecvBulkCap > 0 && count > req.RecvBulkCap {
		count = req.RecvBulkCap
	}
	bulk := req.ReplyBuf
	if bulk == nil {
		bulk = &oncrpc.Bulk{Data: make([]byte, count)}
	}
	var dst []byte
	if bulk.Data != nil {
		dst = bulk.Data[:min(count, len(bulk.Data))]
	}
	n, eof, err := s.fs.Read(p, id, int64(args.Offset), count, dst)
	if err != nil {
		res.Status, res.Attr = StatusFromVFS(err), s.postAttr(p, id)
		s.reply(req, res.XDR)
		return nil
	}
	bulk.Len = n
	if s.cfg.CPU != nil {
		s.cfg.CPU.Copy(p, n) // file system -> staging buffer
	}
	res = ReadRes{Status: OK, Attr: s.postAttr(p, id), Count: uint32(n), EOF: eof}
	s.reply(req, res.XDR)
	return bulk
}

func (s *Server) write(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args WriteArgs
	var res WriteRes
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		return nil
	}
	id, count, bulk := args.FH.file(), 0, req.Bulk
	if bulk != nil {
		count = min(int(args.Count), bulk.Len, maxTransfer)
	}
	var data []byte
	if bulk != nil && bulk.Data != nil {
		data = bulk.Data[:count]
	}
	if s.cfg.CPU != nil {
		s.cfg.CPU.Copy(p, count) // staging buffer -> file system
	}
	pre, preOK := s.preOp(p, id)
	n, err := s.fs.Write(p, id, int64(args.Offset), count, data, args.Stable == FileSync)
	res = WriteRes{
		Status: StatusFromVFS(err), Wcc: s.wccFrom(p, id, pre, preOK),
		Count: uint32(n), Committed: args.Stable, Verf: s.writeVerf,
	}
	s.reply(req, res.XDR)
	return nil
}

func (s *Server) create(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args CreateArgs
	var res CreateRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Where.Dir) {
		dir := args.Where.Dir.file()
		pre, preOK := s.preOp(p, dir)
		id, attr, err := s.fs.Create(p, dir, args.Where.Name, modeOr(args.Attr.Mode, 0644))
		s.made(p, req, dir, pre, preOK, id, attr, err)
	}
	return nil
}

func (s *Server) mkdir(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args MkdirArgs
	var res CreateRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Where.Dir) {
		dir := args.Where.Dir.file()
		pre, preOK := s.preOp(p, dir)
		id, attr, err := s.fs.Mkdir(p, dir, args.Where.Name, modeOr(args.Attr.Mode, 0755))
		s.made(p, req, dir, pre, preOK, id, attr, err)
	}
	return nil
}

func (s *Server) symlink(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args SymlinkArgs
	var res CreateRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Where.Dir) {
		dir := args.Where.Dir.file()
		pre, preOK := s.preOp(p, dir)
		id, attr, err := s.fs.Symlink(p, dir, args.Where.Name, args.Target)
		s.made(p, req, dir, pre, preOK, id, attr, err)
	}
	return nil
}

func modeOr(mode *uint32, def uint32) uint32 {
	if mode != nil {
		return *mode
	}
	return def
}

// made writes the results of CREATE, MKDIR or SYMLINK in dir, which made id.
func (s *Server) made(p *des.Proc, req *oncrpc.ServerRequest, dir vfs.FileID, pre WccAttr, preOK bool, id vfs.FileID, attr vfs.Attr, err error) {
	res := CreateRes{Status: StatusFromVFS(err), DirWcc: s.wccFrom(p, dir, pre, preOK)}
	if err == nil {
		res.FHPresent, res.FH = true, s.mkFH(id)
		res.Attr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
	}
	s.reply(req, res.XDR)
}

// mknod answers MKNOD without decoding it: the file system has no special
// files.
func (s *Server) mknod(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	s.reply(req, (&CreateRes{Status: ErrNotSupp}).XDR)
	return nil
}

// remove runs REMOVE and RMDIR.
func (s *Server) remove(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args DirOpArgs
	var res WccRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.Dir) {
		dir := args.Dir.file()
		pre, preOK := s.preOp(p, dir)
		var err error
		if req.Header.Proc == ProcRmdir {
			err = s.fs.Rmdir(p, dir, args.Name)
		} else {
			err = s.fs.Remove(p, dir, args.Name)
		}
		res = WccRes{Status: StatusFromVFS(err), Wcc: s.wccFrom(p, dir, pre, preOK)}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) rename(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args RenameArgs
	var res RenameRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.From.Dir, &args.To.Dir) {
		from, to := args.From.Dir.file(), args.To.Dir.file()
		fromPre, fromOK := s.preOp(p, from)
		toPre, toOK := s.preOp(p, to)
		err := s.fs.Rename(p, from, args.From.Name, to, args.To.Name)
		res = RenameRes{
			Status:  StatusFromVFS(err),
			FromWcc: s.wccFrom(p, from, fromPre, fromOK),
			ToWcc:   s.wccFrom(p, to, toPre, toOK),
		}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) link(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args LinkArgs
	var res LinkRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH, &args.Link.Dir) {
		id, dir := args.FH.file(), args.Link.Dir.file()
		pre, preOK := s.preOp(p, dir)
		_, err := s.fs.Link(p, id, dir, args.Link.Name)
		res = LinkRes{Status: StatusFromVFS(err), Attr: s.postAttr(p, id), LinkWcc: s.wccFrom(p, dir, pre, preOK)}
		s.reply(req, res.XDR)
	}
	return nil
}

// readdir runs READDIR and READDIRPLUS.
func (s *Server) readdir(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	args := ReadDirArgs{Plus: req.Header.Proc == ProcReadDirPlus}
	res := ReadDirRes{Plus: args.Plus}
	if !s.decode(req, args.XDR, res.XDR, &res.Status, &args.Dir) {
		return nil
	}
	dir := args.Dir.file()
	// Entry budget from the reply byte budget: ~64 bytes per plain entry,
	// ~160 with attributes and handle.
	per := 64
	if args.Plus {
		per = 160
	}
	ents, eof, err := s.fs.ReadDir(p, dir, int64(args.Cookie), max(int(args.Count)/per, 1))
	res.Status, res.DirAttr, res.EOF = StatusFromVFS(err), s.postAttr(p, dir), eof
	if err == nil {
		for _, ent := range ents {
			e3 := DirEntry3{FileID: uint64(ent.FileID), Name: ent.Name, Cookie: uint64(ent.Cookie)}
			if args.Plus {
				e3.Attr = s.postAttr(p, ent.FileID)
				e3.FHPresent = true
				e3.FH = s.mkFH(ent.FileID)
			}
			res.Entries = append(res.Entries, e3)
		}
	}
	s.reply(req, res.XDR)
	return nil
}

func (s *Server) fsstat(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args GetAttrArgs
	var res FSStatRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		total, free := s.fs.FSStat()
		res = FSStatRes{
			Status: OK, Attr: s.postAttr(p, args.FH.file()),
			TBytes: uint64(total), FBytes: uint64(free), ABytes: uint64(free),
			TFiles: 1 << 20, FFiles: 1 << 19, AFiles: 1 << 19,
		}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) fsinfo(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args GetAttrArgs
	var res FSInfoRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		res = FSInfoRes{
			Status: OK, Attr: s.postAttr(p, args.FH.file()),
			RTMax: maxTransfer, RTPref: maxTransfer,
			WTMax: maxTransfer, WTPref: maxTransfer,
			DTPref: 64 << 10, MaxFileSize: 1 << 62,
		}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) pathconf(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args GetAttrArgs
	var res PathConfRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		res = PathConfRes{Status: OK, Attr: s.postAttr(p, args.FH.file()), LinkMax: 32000, NameMax: vfs.MaxNameLen}
		s.reply(req, res.XDR)
	}
	return nil
}

func (s *Server) commit(p *des.Proc, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	var args CommitArgs
	var res CommitRes
	if s.decode(req, args.XDR, res.XDR, &res.Status, &args.FH) {
		id := args.FH.file()
		pre, preOK := s.preOp(p, id)
		err := s.fs.Commit(p, id, int64(args.Offset), int(args.Count))
		res = CommitRes{Status: StatusFromVFS(err), Wcc: s.wccFrom(p, id, pre, preOK), Verf: s.writeVerf}
		s.reply(req, res.XDR)
	}
	return nil
}
