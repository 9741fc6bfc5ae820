package nfs3

import (
	"repro/internal/xdr"
)

// This file defines the argument and result messages of every NFSv3
// procedure, each with one XDR method that both the client stubs and the
// server dispatcher code it through, so the two sides cannot drift.
//
// READ results and WRITE arguments deliberately exclude the data payload:
// it travels through the transport's direct-data-placement path (RDMA
// chunks, or appended inline by the stream transport), exactly like the
// page-list part of the kernel xdr_buf.

// GetAttrArgs is GETATTR3args.
type GetAttrArgs struct{ FH FH }

// XDR codes the args.
func (a *GetAttrArgs) XDR(c *xdr.Codec) { a.FH.XDR(c) }

// Encode appends the args to e.
func (a *GetAttrArgs) Encode(e *xdr.Encoder) { c := xdr.EncodeTo(e); a.XDR(&c) }

// GetAttrRes is GETATTR3res.
type GetAttrRes struct {
	Status Status
	Attr   FAttr
}

// XDR codes the result.
func (r *GetAttrRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	if r.Status == OK {
		r.Attr.XDR(c)
	}
}

// SetAttrArgs is SETATTR3args. Guard, when non-nil, is the sattrguard3
// ctime: the server applies the change only if the object's current ctime
// matches, else NFS3ERR_NOT_SYNC (the optimistic-concurrency check real
// clients use to serialize attribute updates).
type SetAttrArgs struct {
	FH    FH
	Attr  SAttr
	Guard *NFSTime
}

// XDR codes the args.
func (a *SetAttrArgs) XDR(c *xdr.Codec) {
	a.FH.XDR(c)
	a.Attr.XDR(c)
	if guard := a.Guard != nil; c.Optional(&guard) {
		if a.Guard == nil {
			a.Guard = new(NFSTime)
		}
		a.Guard.XDR(c)
	}
}

// WccRes is the common "status + wcc_data" result shape (SETATTR, REMOVE,
// RMDIR).
type WccRes struct {
	Status Status
	Wcc    WccData
}

// XDR codes the result.
func (r *WccRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Wcc.XDR(c)
}

// DirOpArgs is diropargs3 (LOOKUP, REMOVE, RMDIR and friends).
type DirOpArgs struct {
	Dir  FH
	Name string
}

// XDR codes the args.
func (a *DirOpArgs) XDR(c *xdr.Codec) {
	a.Dir.XDR(c)
	c.String(&a.Name)
}

// LookupRes is LOOKUP3res.
type LookupRes struct {
	Status  Status
	Object  FH
	ObjAttr PostOpAttr
	DirAttr PostOpAttr
}

// XDR codes the result.
func (r *LookupRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	if r.Status == OK {
		r.Object.XDR(c)
		r.ObjAttr.XDR(c)
	}
	r.DirAttr.XDR(c)
}

// AccessArgs is ACCESS3args.
type AccessArgs struct {
	FH     FH
	Access uint32
}

// XDR codes the args.
func (a *AccessArgs) XDR(c *xdr.Codec) {
	a.FH.XDR(c)
	c.Uint32(&a.Access)
}

// AccessRes is ACCESS3res.
type AccessRes struct {
	Status Status
	Attr   PostOpAttr
	Access uint32
}

// XDR codes the result.
func (r *AccessRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.Access)
	}
}

// ReadLinkRes is READLINK3res.
type ReadLinkRes struct {
	Status Status
	Attr   PostOpAttr
	Path   string
}

// XDR codes the result.
func (r *ReadLinkRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.String(&r.Path)
	}
}

// ReadArgs is READ3args.
type ReadArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// XDR codes the args.
func (a *ReadArgs) XDR(c *xdr.Codec) {
	a.FH.XDR(c)
	c.Uint64(&a.Offset)
	c.Uint32(&a.Count)
}

// ReadRes is READ3res with the data payload carried out of band.
type ReadRes struct {
	Status Status
	Attr   PostOpAttr
	Count  uint32
	EOF    bool
}

// XDR codes the result.
func (r *ReadRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.Count)
		c.Bool(&r.EOF)
		c.Const(r.Count) // data<> length; bytes travel via placement
	}
}

// WriteArgs is WRITE3args with the data payload carried out of band.
type WriteArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
	Stable uint32
}

// XDR codes the args.
func (a *WriteArgs) XDR(c *xdr.Codec) {
	a.FH.XDR(c)
	c.Uint64(&a.Offset)
	c.Uint32(&a.Count)
	c.Uint32(&a.Stable)
	c.Const(a.Count) // data<> length; bytes travel via placement
}

// WriteRes is WRITE3res.
type WriteRes struct {
	Status    Status
	Wcc       WccData
	Count     uint32
	Committed uint32
	Verf      uint64
}

// XDR codes the result.
func (r *WriteRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Wcc.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.Count)
		c.Uint32(&r.Committed)
		c.Uint64(&r.Verf)
	}
}

// CreateArgs is CREATE3args in mode UNCHECKED, the one mode served.
type CreateArgs struct {
	Where DirOpArgs
	Attr  SAttr
}

// XDR codes the args.
func (a *CreateArgs) XDR(c *xdr.Codec) {
	a.Where.XDR(c)
	c.Const(0) // createmode3 UNCHECKED
	a.Attr.XDR(c)
}

// MkdirArgs is MKDIR3args (same shape minus createmode).
type MkdirArgs struct {
	Where DirOpArgs
	Attr  SAttr
}

// XDR codes the args.
func (a *MkdirArgs) XDR(c *xdr.Codec) {
	a.Where.XDR(c)
	a.Attr.XDR(c)
}

// SymlinkArgs is SYMLINK3args.
type SymlinkArgs struct {
	Where  DirOpArgs
	Attr   SAttr
	Target string
}

// XDR codes the args.
func (a *SymlinkArgs) XDR(c *xdr.Codec) {
	a.Where.XDR(c)
	a.Attr.XDR(c)
	c.String(&a.Target)
}

// CreateRes is CREATE3res / MKDIR3res / SYMLINK3res / MKNOD3res.
type CreateRes struct {
	Status    Status
	FHPresent bool
	FH        FH
	Attr      PostOpAttr
	DirWcc    WccData
}

// XDR codes the result.
func (r *CreateRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	if r.Status == OK {
		if c.Optional(&r.FHPresent) {
			r.FH.XDR(c)
		}
		r.Attr.XDR(c)
	}
	r.DirWcc.XDR(c)
}

// RenameArgs is RENAME3args.
type RenameArgs struct {
	From DirOpArgs
	To   DirOpArgs
}

// XDR codes the args.
func (a *RenameArgs) XDR(c *xdr.Codec) {
	a.From.XDR(c)
	a.To.XDR(c)
}

// RenameRes is RENAME3res.
type RenameRes struct {
	Status  Status
	FromWcc WccData
	ToWcc   WccData
}

// XDR codes the result.
func (r *RenameRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.FromWcc.XDR(c)
	r.ToWcc.XDR(c)
}

// LinkArgs is LINK3args.
type LinkArgs struct {
	FH   FH
	Link DirOpArgs
}

// XDR codes the args.
func (a *LinkArgs) XDR(c *xdr.Codec) {
	a.FH.XDR(c)
	a.Link.XDR(c)
}

// LinkRes is LINK3res.
type LinkRes struct {
	Status  Status
	Attr    PostOpAttr
	LinkWcc WccData
}

// XDR codes the result.
func (r *LinkRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	r.LinkWcc.XDR(c)
}

// ReadDirArgs is READDIR3args, or READDIRPLUS3args when Plus is set.
type ReadDirArgs struct {
	Dir        FH
	Cookie     uint64
	CookieVerf uint64
	DirCount   uint32 // READDIRPLUS only
	Count      uint32 // (max)count
	Plus       bool
}

// XDR codes the args.
func (a *ReadDirArgs) XDR(c *xdr.Codec) {
	a.Dir.XDR(c)
	c.Uint64(&a.Cookie)
	c.Uint64(&a.CookieVerf)
	if a.Plus {
		c.Uint32(&a.DirCount)
	}
	c.Uint32(&a.Count)
}

// DirEntry3 is one READDIR(PLUS) entry.
type DirEntry3 struct {
	FileID uint64
	Name   string
	Cookie uint64
	// READDIRPLUS extras.
	Attr      PostOpAttr
	FHPresent bool
	FH        FH
}

// size is the entry's encoded length in a list, its value_follows word
// included; with plus, its name_handle is present.
func (e *DirEntry3) size(plus bool) int {
	n := 4 + 8 + 4 + (len(e.Name)+3)&^3 + 8
	if plus {
		n += e.Attr.size() + 4 + 4 + 16
	}
	return n
}

func (e *DirEntry3) xdr(c *xdr.Codec, plus bool) {
	c.Uint64(&e.FileID)
	c.String(&e.Name)
	c.Uint64(&e.Cookie)
	if plus {
		e.Attr.XDR(c)
		if c.Optional(&e.FHPresent) {
			e.FH.XDR(c)
		}
	}
}

// ReadDirRes is READDIR3res, or READDIRPLUS3res when Plus is set.
type ReadDirRes struct {
	Status     Status
	DirAttr    PostOpAttr
	CookieVerf uint64
	Entries    []DirEntry3
	EOF        bool
	Plus       bool
}

// XDR codes the result.
func (r *ReadDirRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.DirAttr.XDR(c)
	if r.Status != OK {
		return
	}
	c.Uint64(&r.CookieVerf)
	c.List(len(r.Entries), func(i int) {
		if c.Decoding() {
			r.Entries = append(r.Entries, DirEntry3{})
		}
		r.Entries[i].xdr(c, r.Plus)
	})
	c.Bool(&r.EOF)
}

// FSStatRes is FSSTAT3res.
type FSStatRes struct {
	Status Status
	Attr   PostOpAttr
	TBytes uint64
	FBytes uint64
	ABytes uint64
	TFiles uint64
	FFiles uint64
	AFiles uint64
}

// XDR codes the result.
func (r *FSStatRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint64(&r.TBytes)
		c.Uint64(&r.FBytes)
		c.Uint64(&r.ABytes)
		c.Uint64(&r.TFiles)
		c.Uint64(&r.FFiles)
		c.Uint64(&r.AFiles)
		c.Const(0) // invarsec
	}
}

// FSInfoRes is FSINFO3res.
type FSInfoRes struct {
	Status      Status
	Attr        PostOpAttr
	RTMax       uint32
	RTPref      uint32
	WTMax       uint32
	WTPref      uint32
	DTPref      uint32
	MaxFileSize uint64
}

// XDR codes the result.
func (r *FSInfoRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.RTMax)
		c.Uint32(&r.RTPref)
		c.Const(1) // rtmult
		c.Uint32(&r.WTMax)
		c.Uint32(&r.WTPref)
		c.Const(1) // wtmult
		c.Uint32(&r.DTPref)
		c.Uint64(&r.MaxFileSize)
		c.Const(0)    // time_delta: 0 s
		c.Const(1)    // and 1 ns
		c.Const(0x1b) // properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
	}
}

// PathConfRes is PATHCONF3res.
type PathConfRes struct {
	Status  Status
	Attr    PostOpAttr
	LinkMax uint32
	NameMax uint32
}

// XDR codes the result.
func (r *PathConfRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.LinkMax)
		c.Uint32(&r.NameMax)
		c.Const(1) // no_trunc
		c.Const(0) // chown_restricted
		c.Const(0) // case_insensitive
		c.Const(1) // case_preserving
	}
}

// CommitArgs is COMMIT3args.
type CommitArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// XDR codes the args.
func (a *CommitArgs) XDR(c *xdr.Codec) {
	a.FH.XDR(c)
	c.Uint64(&a.Offset)
	c.Uint32(&a.Count)
}

// CommitRes is COMMIT3res.
type CommitRes struct {
	Status Status
	Wcc    WccData
	Verf   uint64
}

// XDR codes the result.
func (r *CommitRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	r.Wcc.XDR(c)
	if r.Status == OK {
		c.Uint64(&r.Verf)
	}
}
