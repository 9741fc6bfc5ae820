// Package nfs3 implements the NFS version 3 protocol (RFC 1813): wire
// types, all 22 procedures, a server that dispatches onto a vfs.FS, and a
// client with typed stubs. Bulk payloads (READ reply data, WRITE call data)
// travel through the transport's direct-data-placement path rather than
// inline XDR, mirroring the kernel xdr_buf page-list split that RPC/RDMA
// chunking is built on.
package nfs3

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Program identity.
const (
	Program = 100003
	Version = 3
)

// Procedure numbers.
const (
	ProcNull        = 0
	ProcGetAttr     = 1
	ProcSetAttr     = 2
	ProcLookup      = 3
	ProcAccess      = 4
	ProcReadLink    = 5
	ProcRead        = 6
	ProcWrite       = 7
	ProcCreate      = 8
	ProcMkdir       = 9
	ProcSymlink     = 10
	ProcMknod       = 11
	ProcRemove      = 12
	ProcRmdir       = 13
	ProcRename      = 14
	ProcLink        = 15
	ProcReadDir     = 16
	ProcReadDirPlus = 17
	ProcFSStat      = 18
	ProcFSInfo      = 19
	ProcPathConf    = 20
	ProcCommit      = 21
)

// ProcName returns the conventional name of a procedure number.
func ProcName(proc uint32) string {
	if int(proc) < len(procs) {
		return procs[proc].name
	}
	return fmt.Sprintf("PROC%d", proc)
}

// Status is an nfsstat3 result code.
type Status uint32

// nfsstat3 values.
const (
	OK             Status = 0
	ErrPerm        Status = 1
	ErrNoEnt       Status = 2
	ErrIO          Status = 5
	ErrAcces       Status = 13
	ErrExist       Status = 17
	ErrNotDir      Status = 20
	ErrIsDir       Status = 21
	ErrInval       Status = 22
	ErrFBig        Status = 27
	ErrNoSpc       Status = 28
	ErrROFS        Status = 30
	ErrNameTooLong Status = 63
	ErrNotEmpty    Status = 66
	ErrStale       Status = 70
	ErrBadHandle   Status = 10001
	ErrNotSync     Status = 10002
	ErrNotSupp     Status = 10004
	ErrTooSmall    Status = 10005
	ErrServerFault Status = 10006
)

func (s Status) String() string {
	switch s {
	case OK:
		return "NFS3_OK"
	case ErrPerm:
		return "NFS3ERR_PERM"
	case ErrNoEnt:
		return "NFS3ERR_NOENT"
	case ErrIO:
		return "NFS3ERR_IO"
	case ErrAcces:
		return "NFS3ERR_ACCES"
	case ErrExist:
		return "NFS3ERR_EXIST"
	case ErrNotDir:
		return "NFS3ERR_NOTDIR"
	case ErrIsDir:
		return "NFS3ERR_ISDIR"
	case ErrInval:
		return "NFS3ERR_INVAL"
	case ErrFBig:
		return "NFS3ERR_FBIG"
	case ErrNoSpc:
		return "NFS3ERR_NOSPC"
	case ErrROFS:
		return "NFS3ERR_ROFS"
	case ErrNameTooLong:
		return "NFS3ERR_NAMETOOLONG"
	case ErrNotEmpty:
		return "NFS3ERR_NOTEMPTY"
	case ErrStale:
		return "NFS3ERR_STALE"
	case ErrBadHandle:
		return "NFS3ERR_BADHANDLE"
	case ErrNotSync:
		return "NFS3ERR_NOT_SYNC"
	case ErrNotSupp:
		return "NFS3ERR_NOTSUPP"
	case ErrTooSmall:
		return "NFS3ERR_TOOSMALL"
	case ErrServerFault:
		return "NFS3ERR_SERVERFAULT"
	}
	return fmt.Sprintf("NFS3ERR(%d)", uint32(s))
}

// Err converts a non-OK status into a Go error.
func (s Status) Err() error {
	if s == OK {
		return nil
	}
	return &StatusError{Status: s}
}

// StatusError wraps a non-OK NFS status as an error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return e.Status.String() }

// XDR codes the status every result starts with.
func (s *Status) XDR(c *xdr.Codec) { c.Uint32((*uint32)(s)) }

// StatusFromVFS maps substrate errors to protocol status codes.
func StatusFromVFS(err error) Status {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, vfs.ErrNotExist):
		return ErrNoEnt
	case errors.Is(err, vfs.ErrExist):
		return ErrExist
	case errors.Is(err, vfs.ErrNotDir):
		return ErrNotDir
	case errors.Is(err, vfs.ErrIsDir):
		return ErrIsDir
	case errors.Is(err, vfs.ErrNotEmpty):
		return ErrNotEmpty
	case errors.Is(err, vfs.ErrStale):
		return ErrStale
	case errors.Is(err, vfs.ErrInval):
		return ErrInval
	case errors.Is(err, vfs.ErrNoSpace):
		return ErrNoSpc
	case errors.Is(err, vfs.ErrROFS):
		return ErrROFS
	case errors.Is(err, vfs.ErrNameTooLong):
		return ErrNameTooLong
	default:
		return ErrServerFault
	}
}

// FH is an nfs_fh3 file handle: fsid + fileid, opaque on the wire.
type FH struct {
	FSID   uint64
	FileID uint64
}

// MaxFHSize is the nfs_fh3 opaque bound.
const MaxFHSize = 64

// errHandleSize rejects an nfs_fh3 whose body is not 16 bytes, as this
// server's handles all are.
var errHandleSize = errors.New("nfs3: bad handle length")

// XDR codes the handle as opaque data: a 16-byte body, so no padding.
func (h *FH) XDR(c *xdr.Codec) {
	n := uint32(16)
	c.Uint32(&n)
	c.Check(n == 16, errHandleSize)
	c.Uint64(&h.FSID)
	c.Uint64(&h.FileID)
}

func (h FH) file() vfs.FileID { return vfs.FileID(h.FileID) }

// FType is ftype3.
type FType uint32

// ftype3 values.
const (
	TypeReg  FType = 1
	TypeDir  FType = 2
	TypeBlk  FType = 3
	TypeChr  FType = 4
	TypeLnk  FType = 5
	TypeSock FType = 6
	TypeFifo FType = 7
)

// NFSTime is nfstime3.
type NFSTime struct {
	Sec  uint32
	NSec uint32
}

// TimeFromSim converts virtual time to nfstime3.
func TimeFromSim(t des.Time) NFSTime {
	return NFSTime{Sec: uint32(int64(t) / 1e9), NSec: uint32(int64(t) % 1e9)}
}

// XDR codes nfstime3.
func (t *NFSTime) XDR(c *xdr.Codec) {
	c.Uint32(&t.Sec)
	c.Uint32(&t.NSec)
}

// FAttr is fattr3.
type FAttr struct {
	Type                 FType
	Mode                 uint32
	Nlink                uint32
	UID                  uint32
	GID                  uint32
	Size                 uint64
	Used                 uint64
	RdevMajor, RdevMinor uint32
	FSID                 uint64
	FileID               uint64
	Atime                NFSTime
	Mtime                NFSTime
	Ctime                NFSTime
}

// XDR codes fattr3.
func (a *FAttr) XDR(c *xdr.Codec) {
	c.Uint32((*uint32)(&a.Type))
	c.Uint32(&a.Mode)
	c.Uint32(&a.Nlink)
	c.Uint32(&a.UID)
	c.Uint32(&a.GID)
	c.Uint64(&a.Size)
	c.Uint64(&a.Used)
	c.Uint32(&a.RdevMajor)
	c.Uint32(&a.RdevMinor)
	c.Uint64(&a.FSID)
	c.Uint64(&a.FileID)
	a.Atime.XDR(c)
	a.Mtime.XDR(c)
	a.Ctime.XDR(c)
}

// AttrFromVFS converts substrate attributes to fattr3.
func AttrFromVFS(fsid uint64, a vfs.Attr) FAttr {
	return FAttr{
		Type:   FType(a.Type),
		Mode:   a.Mode,
		Nlink:  a.Nlink,
		UID:    a.UID,
		GID:    a.GID,
		Size:   uint64(a.Size),
		Used:   uint64(a.Size),
		FSID:   fsid,
		FileID: uint64(a.FileID),
		Atime:  TimeFromSim(a.Atime),
		Mtime:  TimeFromSim(a.Mtime),
		Ctime:  TimeFromSim(a.Ctime),
	}
}

// PostOpAttr is post_op_attr: optional fattr3.
type PostOpAttr struct {
	Present bool
	Attr    FAttr
}

// XDR codes post_op_attr.
func (a *PostOpAttr) XDR(c *xdr.Codec) {
	if c.Optional(&a.Present) {
		a.Attr.XDR(c)
	}
}

// WccAttr is wcc_attr (pre-op attributes subset).
type WccAttr struct {
	Size  uint64
	Mtime NFSTime
	Ctime NFSTime
}

// WccData is wcc_data (weak cache consistency).
type WccData struct {
	PrePresent bool
	Pre        WccAttr
	Post       PostOpAttr
}

// XDR codes wcc_data.
func (w *WccData) XDR(c *xdr.Codec) {
	if c.Optional(&w.PrePresent) {
		c.Uint64(&w.Pre.Size)
		w.Pre.Mtime.XDR(c)
		w.Pre.Ctime.XDR(c)
	}
	w.Post.XDR(c)
}

// SAttr is sattr3 (settable attributes); a nil field is left unchanged.
type SAttr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *uint64
	Atime SetTime
	Mtime SetTime
}

// XDR codes sattr3.
func (s *SAttr) XDR(c *xdr.Codec) {
	optUint32(c, &s.Mode)
	optUint32(c, &s.UID)
	optUint32(c, &s.GID)
	if set := s.Size != nil; c.Optional(&set) {
		if s.Size == nil {
			s.Size = new(uint64)
		}
		c.Uint64(s.Size)
	}
	s.Atime.XDR(c)
	s.Mtime.XDR(c)
}

func optUint32(c *xdr.Codec, v **uint32) {
	if set := *v != nil; c.Optional(&set) {
		if *v == nil {
			*v = new(uint32)
		}
		c.Uint32(*v)
	}
}

// time_how values.
const (
	DontChange      = 0
	SetToServerTime = 1
	SetToClientTime = 2
)

// SetTime is set_atime / set_mtime: How is a time_how, and Time the time
// SET_TO_CLIENT_TIME carries.
type SetTime struct {
	How  uint32
	Time NFSTime
}

// XDR codes set_atime / set_mtime.
func (t *SetTime) XDR(c *xdr.Codec) {
	c.Uint32(&t.How)
	c.Check(t.How <= SetToClientTime, xdr.ErrBadValue)
	if t.How == SetToClientTime {
		t.Time.XDR(c)
	}
}

// ACCESS bits.
const (
	AccessRead    = 0x01
	AccessLookup  = 0x02
	AccessModify  = 0x04
	AccessExtend  = 0x08
	AccessDelete  = 0x10
	AccessExecute = 0x20
)

// Write stability levels.
const (
	Unstable = 0
	DataSync = 1
	FileSync = 2
)
