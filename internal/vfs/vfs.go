// Package vfs provides the server-side file system substrate for the NFS
// server: a common in-memory namespace (directories, attributes, links)
// over pluggable data stores — a memory store standing in for the paper's
// tmpfs back end, and a page-cached striped disk array standing in for its
// XFS-on-RAID-0 back end (§5.3).
package vfs

import (
	"errors"

	"repro/internal/des"
)

// FileID is a stable inode number.
type FileID uint64

// FileType enumerates inode types.
type FileType int

// Inode types (matching the NFSv3 ftype3 values we use).
const (
	TypeReg FileType = 1
	TypeDir FileType = 2
	TypeLnk FileType = 5
)

// Attr is the attribute set the NFS fattr3 maps onto.
type Attr struct {
	Type   FileType
	Mode   uint32
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   int64
	FileID FileID
	Atime  des.Time
	Mtime  des.Time
	Ctime  des.Time
}

// SetAttr carries the settable attribute subset; nil-able fields use
// presence flags.
type SetAttr struct {
	Mode    *uint32
	UID     *uint32
	GID     *uint32
	Size    *int64
	SetTime bool // touch mtime
}

// DirEntry is one readdir record.
type DirEntry struct {
	FileID FileID
	Name   string
	Cookie int64
}

// Errors mapped to NFS status codes by the protocol layer.
var (
	ErrNotExist    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrStale       = errors.New("vfs: stale file handle")
	ErrInval       = errors.New("vfs: invalid argument")
	ErrNoSpace     = errors.New("vfs: no space left on device")
	ErrROFS        = errors.New("vfs: read-only file system")
	ErrNameTooLong = errors.New("vfs: name too long")
)

// FS is the interface the NFS server drives. The data calls are chains that
// wait for the disk, when they reach it, on the scheduler loop and leave
// their results in an Op the caller owns; the metadata calls never wait, and
// never use their process, which may be nil.
type FS interface {
	Root() FileID
	Lookup(p *des.Proc, dir FileID, name string) (FileID, Attr, error)
	GetAttr(p *des.Proc, id FileID) (Attr, error)
	SetAttr(p *des.Proc, id FileID, s SetAttr) (Attr, error)
	Create(p *des.Proc, dir FileID, name string, mode uint32) (FileID, Attr, error)
	Mkdir(p *des.Proc, dir FileID, name string, mode uint32) (FileID, Attr, error)
	Symlink(p *des.Proc, dir FileID, name, target string) (FileID, Attr, error)
	ReadLink(p *des.Proc, id FileID) (string, error)
	Remove(p *des.Proc, dir FileID, name string) error
	Rmdir(p *des.Proc, dir FileID, name string) error
	Rename(p *des.Proc, fromDir FileID, fromName string, toDir FileID, toName string) error
	Link(p *des.Proc, id FileID, dir FileID, name string) (Attr, error)

	// ReadThen fills dst (when non-nil) with up to count bytes from off,
	// then calls fn(arg) with the byte count and EOF flag in op.N and
	// op.EOF, or the error in op.Err. dst==nil runs the same timing path
	// without materializing data (phantom mode).
	ReadThen(op *Op, id FileID, off int64, count int, dst []byte, fn func(any), arg any)

	// WriteThen stores count bytes at off (data may be nil in phantom
	// mode), then calls fn(arg) with the count in op.N or the error in
	// op.Err. stable requests synchronous durability (NFSv3 FILE_SYNC).
	WriteThen(op *Op, id FileID, off int64, count int, data []byte, stable bool, fn func(any), arg any)

	// CommitThen flushes [off, off+count) (NFSv3 COMMIT), then calls
	// fn(arg) with the error in op.Err.
	CommitThen(op *Op, id FileID, off int64, count int, fn func(any), arg any)

	// ReadDir appends to into, which the caller owns, up to maxEntries (0:
	// all) of dir's entries after cookie, in name order, each with its
	// cookie, and reports whether the listing ended.
	ReadDir(p *des.Proc, dir FileID, cookie int64, maxEntries int, into []DirEntry) ([]DirEntry, bool, error)

	// FSStat returns total and free bytes.
	FSStat() (total, free int64)
}
