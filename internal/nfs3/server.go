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

	// Ops counts handled procedures by number.
	Ops [22]int64
}

var _ oncrpc.Service = (*Server)(nil)

// NewServer exports fs over NFSv3.
func NewServer(fs vfs.FS, cfg ServerConfig) *Server {
	cfg.defaults()
	return &Server{fs: fs, cfg: cfg, writeVerf: 0xc0ffee ^ cfg.FSID}
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

// NonIdempotent implements oncrpc.IdempotencyClassifier: these procedures
// mutate namespace or data in ways a replay would corrupt (a re-executed
// REMOVE returns ENOENT, a re-executed WRITE can clobber newer data, a
// re-executed CREATE with exclusive semantics fails), so the DRC must
// answer their retransmissions from cache. Reads and attribute queries are
// safe to re-execute and stay out of the cache — their bulk-carrying
// replies reference transport staging that is recycled after the first
// send.
func (s *Server) NonIdempotent(proc uint32) bool {
	switch proc {
	case ProcSetAttr, ProcWrite, ProcCreate, ProcMkdir, ProcSymlink,
		ProcMknod, ProcRemove, ProcRmdir, ProcRename, ProcLink:
		return true
	}
	return false
}

// RootFH returns the export root handle.
func (s *Server) RootFH() FH {
	return FH{FSID: s.cfg.FSID, FileID: uint64(s.fs.Root())}
}

// fh validates a handle and returns the file id.
func (s *Server) fh(h FH) (vfs.FileID, Status) {
	if h.FSID != s.cfg.FSID {
		return 0, ErrBadHandle
	}
	return vfs.FileID(h.FileID), OK
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

func (s *Server) wcc(p *des.Proc, id vfs.FileID) WccData {
	return WccData{Post: s.postAttr(p, id)}
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

// resultsSize is each procedure's largest result without a variable-length
// tail (all optional attributes present), and the fixed part of those with
// one: READLINK's path and READDIR[PLUS]'s entries grow the reply beyond it.
var resultsSize = map[uint32]int{
	ProcGetAttr: 88, ProcSetAttr: 120, ProcLookup: 200, ProcAccess: 96, ProcReadLink: 96,
	ProcRead: 104, ProcWrite: 136, ProcCreate: 232, ProcMkdir: 232, ProcSymlink: 232,
	ProcMknod: 232, ProcRemove: 120, ProcRmdir: 120, ProcRename: 236, ProcLink: 208,
	ProcReadDir: 108, ProcReadDirPlus: 108, ProcFSStat: 144, ProcFSInfo: 140,
	ProcPathConf: 116, ProcCommit: 128,
}

// ResultsSize implements oncrpc.ResultsSizer.
func (s *Server) ResultsSize(proc uint32) int { return resultsSize[proc] }

// Handle implements oncrpc.Service: it decodes the procedure, runs it
// against the file system, and appends the encoded result to req.Reply.
func (s *Server) Handle(p *des.Proc, req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	if s.cfg.CPU != nil {
		s.cfg.CPU.Work(p, s.cfg.PerOpCPU)
	}
	proc := req.Header.Proc
	if proc < uint32(len(s.Ops)) {
		s.Ops[proc]++
	}
	d := xdr.NewDecoder(req.Args)
	e := &req.Reply
	var bulk *oncrpc.Bulk
	switch proc {
	case ProcNull: // void -> void
	case ProcGetAttr:
		s.getattr(p, d, e)
	case ProcSetAttr:
		s.setattr(p, d, e)
	case ProcLookup:
		s.lookup(p, d, e)
	case ProcAccess:
		s.access(p, d, e)
	case ProcReadLink:
		s.readlink(p, d, e)
	case ProcRead:
		bulk = s.read(p, d, e, req)
	case ProcWrite:
		s.write(p, d, e, req.Bulk)
	case ProcCreate:
		s.create(p, d, e)
	case ProcMkdir:
		s.mkdir(p, d, e)
	case ProcSymlink:
		s.symlink(p, d, e)
	case ProcRemove:
		s.remove(p, d, e, false)
	case ProcRmdir:
		s.remove(p, d, e, true)
	case ProcRename:
		s.rename(p, d, e)
	case ProcLink:
		s.link(p, d, e)
	case ProcReadDir:
		s.readdir(p, d, e, false)
	case ProcReadDirPlus:
		s.readdir(p, d, e, true)
	case ProcFSStat:
		s.fsstat(p, d, e)
	case ProcFSInfo:
		s.fsinfo(p, d, e)
	case ProcPathConf:
		s.pathconf(p, d, e)
	case ProcCommit:
		s.commit(p, d, e)
	case ProcMknod:
		(&WccRes{Status: ErrNotSupp}).Encode(e)
	default:
		return oncrpc.ServerResponse{Stat: oncrpc.ProcUnavail}
	}
	return oncrpc.ServerResponse{Stat: oncrpc.Success, Bulk: bulk}
}

func (s *Server) getattr(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeGetAttrArgs(d)
	if err != nil {
		(&GetAttrRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&GetAttrRes{Status: st}).Encode(e)
		return
	}
	a, verr := s.fs.GetAttr(p, id)
	if verr != nil {
		(&GetAttrRes{Status: StatusFromVFS(verr)}).Encode(e)
		return
	}
	(&GetAttrRes{Status: OK, Attr: AttrFromVFS(s.cfg.FSID, a)}).Encode(e)
}

func (s *Server) setattr(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeSetAttrArgs(d)
	if err != nil {
		(&WccRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&WccRes{Status: st}).Encode(e)
		return
	}
	pre, preOK := s.preOp(p, id)
	if args.Guard != nil && preOK && *args.Guard != pre.Ctime {
		// sattrguard3 mismatch: someone changed the object since the client
		// sampled its ctime.
		(&WccRes{Status: ErrNotSync, Wcc: s.wccFrom(p, id, pre, preOK)}).Encode(e)
		return
	}
	var sa vfs.SetAttr
	sa.Mode = args.Attr.Mode
	sa.UID = args.Attr.UID
	sa.GID = args.Attr.GID
	if args.Attr.Size != nil {
		sz := int64(*args.Attr.Size)
		sa.Size = &sz
	}
	sa.SetTime = args.Attr.SetMtime
	_, verr := s.fs.SetAttr(p, id, sa)
	(&WccRes{Status: StatusFromVFS(verr), Wcc: s.wccFrom(p, id, pre, preOK)}).Encode(e)
}

func (s *Server) lookup(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeDirOpArgs(d)
	if err != nil {
		(&LookupRes{Status: ErrInval}).Encode(e)
		return
	}
	dir, st := s.fh(args.Dir)
	if st != OK {
		(&LookupRes{Status: st}).Encode(e)
		return
	}
	id, attr, verr := s.fs.Lookup(p, dir, args.Name)
	res := LookupRes{Status: StatusFromVFS(verr), DirAttr: s.postAttr(p, dir)}
	if verr == nil {
		res.Object = s.mkFH(id)
		res.ObjAttr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
	}
	res.Encode(e)
}

func (s *Server) access(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeAccessArgs(d)
	if err != nil {
		(&AccessRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&AccessRes{Status: st}).Encode(e)
		return
	}
	// The simulated export has no permission model: grant what was asked.
	(&AccessRes{Status: OK, Attr: s.postAttr(p, id), Access: args.Access}).Encode(e)
}

func (s *Server) readlink(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeGetAttrArgs(d)
	if err != nil {
		(&ReadLinkRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&ReadLinkRes{Status: st}).Encode(e)
		return
	}
	target, verr := s.fs.ReadLink(p, id)
	(&ReadLinkRes{Status: StatusFromVFS(verr), Attr: s.postAttr(p, id), Path: target}).Encode(e)
}

// read runs READ: payload goes to the transport-provided staging buffer
// (req.ReplyBuf) when present, charged as one server-side copy out of the
// file system.
func (s *Server) read(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder, req *oncrpc.ServerRequest) *oncrpc.Bulk {
	args, err := DecodeReadArgs(d)
	if err != nil {
		(&ReadRes{Status: ErrInval}).Encode(e)
		return nil
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&ReadRes{Status: st}).Encode(e)
		return nil
	}
	count := int(args.Count)
	if count > maxTransfer {
		count = maxTransfer
	}
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
	n, eof, verr := s.fs.Read(p, id, int64(args.Offset), count, dst)
	if verr != nil {
		(&ReadRes{Status: StatusFromVFS(verr), Attr: s.postAttr(p, id)}).Encode(e)
		return nil
	}
	bulk.Len = n
	if s.cfg.CPU != nil {
		s.cfg.CPU.Copy(p, n) // file system -> staging buffer
	}
	(&ReadRes{Status: OK, Attr: s.postAttr(p, id), Count: uint32(n), EOF: eof}).Encode(e)
	return bulk
}

func (s *Server) write(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder, bulk *oncrpc.Bulk) {
	args, err := DecodeWriteArgs(d)
	if err != nil {
		(&WriteRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&WriteRes{Status: st}).Encode(e)
		return
	}
	count := int(args.Count)
	if bulk == nil || bulk.Len < count {
		if bulk != nil {
			count = bulk.Len
		} else {
			count = 0
		}
	}
	if count > maxTransfer {
		count = maxTransfer
	}
	var data []byte
	if bulk != nil && bulk.Data != nil {
		data = bulk.Data[:count]
	}
	if s.cfg.CPU != nil {
		s.cfg.CPU.Copy(p, count) // staging buffer -> file system
	}
	pre, preOK := s.preOp(p, id)
	n, verr := s.fs.Write(p, id, int64(args.Offset), count, data, args.Stable == FileSync)
	res := WriteRes{
		Status: StatusFromVFS(verr), Wcc: s.wccFrom(p, id, pre, preOK),
		Count: uint32(n), Committed: args.Stable, Verf: s.writeVerf,
	}
	if verr == nil && args.Stable == Unstable {
		res.Committed = Unstable
	}
	res.Encode(e)
}

func (s *Server) create(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeCreateArgs(d)
	if err != nil {
		(&CreateRes{Status: ErrInval}).Encode(e)
		return
	}
	dir, st := s.fh(args.Where.Dir)
	if st != OK {
		(&CreateRes{Status: st}).Encode(e)
		return
	}
	mode := uint32(0644)
	if args.Attr.Mode != nil {
		mode = *args.Attr.Mode
	}
	pre, preOK := s.preOp(p, dir)
	id, attr, verr := s.fs.Create(p, dir, args.Where.Name, mode)
	res := CreateRes{Status: StatusFromVFS(verr), DirWcc: s.wccFrom(p, dir, pre, preOK)}
	if verr == nil {
		res.FHPresent = true
		res.FH = s.mkFH(id)
		res.Attr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
	}
	res.Encode(e)
}

func (s *Server) mkdir(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeMkdirArgs(d)
	if err != nil {
		(&CreateRes{Status: ErrInval}).Encode(e)
		return
	}
	dir, st := s.fh(args.Where.Dir)
	if st != OK {
		(&CreateRes{Status: st}).Encode(e)
		return
	}
	mode := uint32(0755)
	if args.Attr.Mode != nil {
		mode = *args.Attr.Mode
	}
	pre, preOK := s.preOp(p, dir)
	id, attr, verr := s.fs.Mkdir(p, dir, args.Where.Name, mode)
	res := CreateRes{Status: StatusFromVFS(verr), DirWcc: s.wccFrom(p, dir, pre, preOK)}
	if verr == nil {
		res.FHPresent = true
		res.FH = s.mkFH(id)
		res.Attr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
	}
	res.Encode(e)
}

func (s *Server) symlink(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeSymlinkArgs(d)
	if err != nil {
		(&CreateRes{Status: ErrInval}).Encode(e)
		return
	}
	dir, st := s.fh(args.Where.Dir)
	if st != OK {
		(&CreateRes{Status: st}).Encode(e)
		return
	}
	pre, preOK := s.preOp(p, dir)
	id, attr, verr := s.fs.Symlink(p, dir, args.Where.Name, args.Target)
	res := CreateRes{Status: StatusFromVFS(verr), DirWcc: s.wccFrom(p, dir, pre, preOK)}
	if verr == nil {
		res.FHPresent = true
		res.FH = s.mkFH(id)
		res.Attr = PostOpAttr{Present: true, Attr: AttrFromVFS(s.cfg.FSID, attr)}
	}
	res.Encode(e)
}

func (s *Server) remove(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder, rmdir bool) {
	args, err := DecodeDirOpArgs(d)
	if err != nil {
		(&WccRes{Status: ErrInval}).Encode(e)
		return
	}
	dir, st := s.fh(args.Dir)
	if st != OK {
		(&WccRes{Status: st}).Encode(e)
		return
	}
	pre, preOK := s.preOp(p, dir)
	var verr error
	if rmdir {
		verr = s.fs.Rmdir(p, dir, args.Name)
	} else {
		verr = s.fs.Remove(p, dir, args.Name)
	}
	(&WccRes{Status: StatusFromVFS(verr), Wcc: s.wccFrom(p, dir, pre, preOK)}).Encode(e)
}

func (s *Server) rename(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeRenameArgs(d)
	if err != nil {
		(&RenameRes{Status: ErrInval}).Encode(e)
		return
	}
	from, st := s.fh(args.From.Dir)
	if st != OK {
		(&RenameRes{Status: st}).Encode(e)
		return
	}
	to, st := s.fh(args.To.Dir)
	if st != OK {
		(&RenameRes{Status: st}).Encode(e)
		return
	}
	fromPre, fromOK := s.preOp(p, from)
	toPre, toOK := s.preOp(p, to)
	verr := s.fs.Rename(p, from, args.From.Name, to, args.To.Name)
	(&RenameRes{
		Status:  StatusFromVFS(verr),
		FromWcc: s.wccFrom(p, from, fromPre, fromOK),
		ToWcc:   s.wccFrom(p, to, toPre, toOK),
	}).Encode(e)
}

func (s *Server) link(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeLinkArgs(d)
	if err != nil {
		(&LinkRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&LinkRes{Status: st}).Encode(e)
		return
	}
	dir, st := s.fh(args.Link.Dir)
	if st != OK {
		(&LinkRes{Status: st}).Encode(e)
		return
	}
	pre, preOK := s.preOp(p, dir)
	_, verr := s.fs.Link(p, id, dir, args.Link.Name)
	(&LinkRes{Status: StatusFromVFS(verr), Attr: s.postAttr(p, id), LinkWcc: s.wccFrom(p, dir, pre, preOK)}).Encode(e)
}

func (s *Server) readdir(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder, plus bool) {
	args, err := DecodeReadDirArgs(d, plus)
	if err != nil {
		(&ReadDirRes{Status: ErrInval, Plus: plus}).Encode(e)
		return
	}
	dir, st := s.fh(args.Dir)
	if st != OK {
		(&ReadDirRes{Status: st, Plus: plus}).Encode(e)
		return
	}
	// Entry budget from the reply byte budget: ~64 bytes per plain entry,
	// ~160 with attributes and handle.
	per := 64
	if plus {
		per = 160
	}
	maxEntries := int(args.Count) / per
	if maxEntries < 1 {
		maxEntries = 1
	}
	ents, eof, verr := s.fs.ReadDir(p, dir, int64(args.Cookie), maxEntries)
	res := ReadDirRes{
		Status:  StatusFromVFS(verr),
		DirAttr: s.postAttr(p, dir),
		EOF:     eof,
		Plus:    plus,
	}
	if verr == nil {
		for _, ent := range ents {
			e3 := DirEntry3{FileID: uint64(ent.FileID), Name: ent.Name, Cookie: uint64(ent.Cookie)}
			if plus {
				e3.Attr = s.postAttr(p, ent.FileID)
				e3.FHPresent = true
				e3.FH = s.mkFH(ent.FileID)
			}
			res.Entries = append(res.Entries, e3)
		}
	}
	res.Encode(e)
}

func (s *Server) fsstat(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeGetAttrArgs(d)
	if err != nil {
		(&FSStatRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&FSStatRes{Status: st}).Encode(e)
		return
	}
	total, free := s.fs.FSStat()
	(&FSStatRes{
		Status: OK, Attr: s.postAttr(p, id),
		TBytes: uint64(total), FBytes: uint64(free), ABytes: uint64(free),
		TFiles: 1 << 20, FFiles: 1 << 19, AFiles: 1 << 19,
	}).Encode(e)
}

func (s *Server) fsinfo(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeGetAttrArgs(d)
	if err != nil {
		(&FSInfoRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&FSInfoRes{Status: st}).Encode(e)
		return
	}
	(&FSInfoRes{
		Status: OK, Attr: s.postAttr(p, id),
		RTMax: maxTransfer, RTPref: maxTransfer,
		WTMax: maxTransfer, WTPref: maxTransfer,
		DTPref: 64 << 10, MaxFileSize: 1 << 62,
	}).Encode(e)
}

func (s *Server) pathconf(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeGetAttrArgs(d)
	if err != nil {
		(&PathConfRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&PathConfRes{Status: st}).Encode(e)
		return
	}
	(&PathConfRes{Status: OK, Attr: s.postAttr(p, id), LinkMax: 32000, NameMax: vfs.MaxNameLen}).Encode(e)
}

func (s *Server) commit(p *des.Proc, d *xdr.Decoder, e *xdr.Encoder) {
	args, err := DecodeCommitArgs(d)
	if err != nil {
		(&CommitRes{Status: ErrInval}).Encode(e)
		return
	}
	id, st := s.fh(args.FH)
	if st != OK {
		(&CommitRes{Status: st}).Encode(e)
		return
	}
	pre, preOK := s.preOp(p, id)
	verr := s.fs.Commit(p, id, int64(args.Offset), int(args.Count))
	(&CommitRes{Status: StatusFromVFS(verr), Wcc: s.wccFrom(p, id, pre, preOK), Verf: s.writeVerf}).Encode(e)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
