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
	names := []string{
		"NULL", "GETATTR", "SETATTR", "LOOKUP", "ACCESS", "READLINK",
		"READ", "WRITE", "CREATE", "MKDIR", "SYMLINK", "MKNOD",
		"REMOVE", "RMDIR", "RENAME", "LINK", "READDIR", "READDIRPLUS",
		"FSSTAT", "FSINFO", "PATHCONF", "COMMIT",
	}
	if int(proc) < len(names) {
		return names[proc]
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

// Encode writes the handle as opaque data: a 16-byte body, so no padding.
func (h FH) Encode(e *xdr.Encoder) {
	e.Uint32(16)
	e.Uint64(h.FSID)
	e.Uint64(h.FileID)
}

// DecodeFH reads an nfs_fh3.
func DecodeFH(d *xdr.Decoder) (FH, error) {
	b, err := d.Opaque()
	if err != nil {
		return FH{}, err
	}
	if len(b) != 16 {
		return FH{}, fmt.Errorf("nfs3: bad handle length %d", len(b))
	}
	id := xdr.NewDecoder(b)
	var h FH
	if h.FSID, err = id.Uint64(); err != nil {
		return FH{}, err
	}
	if h.FileID, err = id.Uint64(); err != nil {
		return FH{}, err
	}
	return h, nil
}

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

func (t NFSTime) encode(e *xdr.Encoder) {
	e.Uint32(t.Sec)
	e.Uint32(t.NSec)
}

func decodeTime(d *xdr.Decoder) (NFSTime, error) {
	var t NFSTime
	var err error
	if t.Sec, err = d.Uint32(); err != nil {
		return t, err
	}
	if t.NSec, err = d.Uint32(); err != nil {
		return t, err
	}
	return t, nil
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

// Encode writes fattr3.
func (a *FAttr) Encode(e *xdr.Encoder) {
	e.Uint32(uint32(a.Type))
	e.Uint32(a.Mode)
	e.Uint32(a.Nlink)
	e.Uint32(a.UID)
	e.Uint32(a.GID)
	e.Uint64(a.Size)
	e.Uint64(a.Used)
	e.Uint32(a.RdevMajor)
	e.Uint32(a.RdevMinor)
	e.Uint64(a.FSID)
	e.Uint64(a.FileID)
	a.Atime.encode(e)
	a.Mtime.encode(e)
	a.Ctime.encode(e)
}

// DecodeFAttr reads fattr3.
func DecodeFAttr(d *xdr.Decoder) (FAttr, error) {
	var a FAttr
	read32 := func(dst *uint32) error {
		v, err := d.Uint32()
		*dst = v
		return err
	}
	read64 := func(dst *uint64) error {
		v, err := d.Uint64()
		*dst = v
		return err
	}
	var ty uint32
	steps := []func() error{
		func() error { return read32(&ty) },
		func() error { return read32(&a.Mode) },
		func() error { return read32(&a.Nlink) },
		func() error { return read32(&a.UID) },
		func() error { return read32(&a.GID) },
		func() error { return read64(&a.Size) },
		func() error { return read64(&a.Used) },
		func() error { return read32(&a.RdevMajor) },
		func() error { return read32(&a.RdevMinor) },
		func() error { return read64(&a.FSID) },
		func() error { return read64(&a.FileID) },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return a, err
		}
	}
	a.Type = FType(ty)
	var err error
	if a.Atime, err = decodeTime(d); err != nil {
		return a, err
	}
	if a.Mtime, err = decodeTime(d); err != nil {
		return a, err
	}
	if a.Ctime, err = decodeTime(d); err != nil {
		return a, err
	}
	return a, nil
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

// Encode writes post_op_attr.
func (a *PostOpAttr) Encode(e *xdr.Encoder) {
	e.Bool(a.Present)
	if a.Present {
		a.Attr.Encode(e)
	}
}

// DecodePostOpAttr reads post_op_attr.
func DecodePostOpAttr(d *xdr.Decoder) (PostOpAttr, error) {
	var a PostOpAttr
	ok, err := d.Bool()
	if err != nil {
		return a, err
	}
	a.Present = ok
	if ok {
		a.Attr, err = DecodeFAttr(d)
	}
	return a, err
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

// Encode writes wcc_data.
func (w *WccData) Encode(e *xdr.Encoder) {
	e.Bool(w.PrePresent)
	if w.PrePresent {
		e.Uint64(w.Pre.Size)
		w.Pre.Mtime.encode(e)
		w.Pre.Ctime.encode(e)
	}
	w.Post.Encode(e)
}

// DecodeWccData reads wcc_data.
func DecodeWccData(d *xdr.Decoder) (WccData, error) {
	var w WccData
	ok, err := d.Bool()
	if err != nil {
		return w, err
	}
	w.PrePresent = ok
	if ok {
		if w.Pre.Size, err = d.Uint64(); err != nil {
			return w, err
		}
		if w.Pre.Mtime, err = decodeTime(d); err != nil {
			return w, err
		}
		if w.Pre.Ctime, err = decodeTime(d); err != nil {
			return w, err
		}
	}
	w.Post, err = DecodePostOpAttr(d)
	return w, err
}

// SAttr is sattr3 (settable attributes).
type SAttr struct {
	Mode *uint32
	UID  *uint32
	GID  *uint32
	Size *uint64
	// Atime/Mtime handling collapsed to "set to server time" flags.
	SetAtime bool
	SetMtime bool
}

// Encode writes sattr3.
func (s *SAttr) Encode(e *xdr.Encoder) {
	enc32 := func(v *uint32) {
		e.Bool(v != nil)
		if v != nil {
			e.Uint32(*v)
		}
	}
	enc32(s.Mode)
	enc32(s.UID)
	enc32(s.GID)
	e.Bool(s.Size != nil)
	if s.Size != nil {
		e.Uint64(*s.Size)
	}
	encTimeHow := func(set bool) {
		if set {
			e.Uint32(1) // SET_TO_SERVER_TIME
		} else {
			e.Uint32(0) // DONT_CHANGE
		}
	}
	encTimeHow(s.SetAtime)
	encTimeHow(s.SetMtime)
}

// DecodeSAttr reads sattr3.
func DecodeSAttr(d *xdr.Decoder) (SAttr, error) {
	var s SAttr
	dec32 := func() (*uint32, error) {
		ok, err := d.Bool()
		if err != nil || !ok {
			return nil, err
		}
		v, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		return &v, nil
	}
	var err error
	if s.Mode, err = dec32(); err != nil {
		return s, err
	}
	if s.UID, err = dec32(); err != nil {
		return s, err
	}
	if s.GID, err = dec32(); err != nil {
		return s, err
	}
	ok, err := d.Bool()
	if err != nil {
		return s, err
	}
	if ok {
		v, err := d.Uint64()
		if err != nil {
			return s, err
		}
		s.Size = &v
	}
	decTimeHow := func() (bool, error) {
		how, err := d.Uint32()
		if err != nil {
			return false, err
		}
		if how == 2 { // SET_TO_CLIENT_TIME carries a time value
			if _, err := decodeTime(d); err != nil {
				return false, err
			}
			return true, nil
		}
		return how == 1, nil
	}
	if s.SetAtime, err = decTimeHow(); err != nil {
		return s, err
	}
	if s.SetMtime, err = decTimeHow(); err != nil {
		return s, err
	}
	return s, nil
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
