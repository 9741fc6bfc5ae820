package core

import (
	"strings"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/rpcrdma"
)

// Client is one simulated NFS client host with a mounted export.
type Client struct {
	cluster *Cluster
	Index   int
	Node    *ibsim.Node
	Mgr     *memreg.Manager

	Transport oncrpc.Transport
	RDMA      *rpcrdma.ClientTransport // nil on TCP transports
	NFS       *nfs3.Client
	Root      nfs3.FH

	attrCache *AttrCache           // nil unless EnableAttrCache was called
	dataCache *DataCache           // nil unless EnableDataCache was called
	recovery  *recoveringTransport // nil unless EnableRecovery was called

	// counts are the timeouts and retransmissions of every RDMA transport
	// this client has used: each adds to them for as long as it lives.
	counts rpcrdma.CallCounts
}

// install makes t the client's RDMA transport and the one whose credits
// Totals.RDMA sums for this client. The transport it replaces, if any, leaves
// the credit sums, so calls still failing back on it cannot disturb them; its
// timeouts and retransmissions still count, in the client's counts and the
// cluster's, as t's will.
func (c *Client) install(t *rpcrdma.ClientTransport) {
	if c.RDMA != nil {
		c.RDMA.SumInto(new(rpcrdma.ClientTotals))
	}
	t.SumInto(&c.cluster.Totals.RDMA)
	t.CountInto(&c.counts, &c.cluster.Totals.RDMA.CallCounts)
	c.RDMA = t
}

// TransportStats returns cumulative RDMA transport timeout and
// retransmission counts across every connection this client has used,
// including ones replaced by Reconnect. Zeros on TCP transports.
func (c *Client) TransportStats() (timeouts, retransmits int64) {
	return c.counts.Timeouts, c.counts.Retransmits
}

// Buffer is client application memory used for file I/O: it is backed by a
// simulator buffer so the RDMA transport can register it for the zero-copy
// direct-I/O path.
type Buffer struct {
	buf  *ibsim.Buffer
	size int
}

// NewBuffer allocates application memory on the client.
func (c *Client) NewBuffer(size int) *Buffer {
	return &Buffer{buf: c.Node.Mem.Alloc(size), size: size}
}

// NewMaterializedBuffer allocates application memory whose bytes are always
// real, regardless of the cluster's phantom-data setting (for integrity
// checks).
func (c *Client) NewMaterializedBuffer(size int) *Buffer {
	return &Buffer{buf: c.Node.Mem.AllocMaterialized(size), size: size}
}

// Size returns the buffer capacity.
func (b *Buffer) Size() int { return b.size }

// Bytes returns the materialized contents (nil in phantom mode).
func (b *Buffer) Bytes() []byte { return b.buf.Data() }

// bulk builds the transport descriptor for [off, off+n).
func (b *Buffer) bulk(off, n int) *oncrpc.Bulk {
	var data []byte
	if d := b.buf.Data(); d != nil {
		data = d[off : off+n]
	}
	return &oncrpc.Bulk{Data: data, Len: n, Handle: b.buf, Off: off}
}

// resolvePath walks a '/'-separated path from the root, returning the
// containing directory handle and the final component.
func (c *Client) resolvePath(p *des.Proc, path string) (dir nfs3.FH, name string, err error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return c.Root, ".", nil
	}
	dir = c.Root
	for _, comp := range parts[:len(parts)-1] {
		dir, _, err = c.lookup(p, dir, comp)
		if err != nil {
			return nfs3.FH{}, "", err
		}
	}
	return dir, parts[len(parts)-1], nil
}

func splitPath(path string) []string {
	var out []string
	for _, s := range strings.Split(path, "/") {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return out
}

// File is an open file on the mount. NFSv3 is stateless: a File is just a
// handle plus the client it came from.
type File struct {
	c  *Client
	fh nfs3.FH
}

// FH returns the file handle.
func (f *File) FH() nfs3.FH { return f.fh }

// Create creates (or opens, if present) a regular file at path.
func (c *Client) Create(p *des.Proc, path string) (*File, error) {
	dir, name, err := c.resolvePath(p, path)
	if err != nil {
		return nil, err
	}
	fh, _, err := c.NFS.Create(p, dir, name, 0644)
	if err != nil {
		if fh2, _, lerr := c.NFS.Lookup(p, dir, name); lerr == nil {
			return &File{c: c, fh: fh2}, nil
		}
		return nil, err
	}
	return &File{c: c, fh: fh}, nil
}

// Open opens an existing file at path.
func (c *Client) Open(p *des.Proc, path string) (*File, error) {
	dir, name, err := c.resolvePath(p, path)
	if err != nil {
		return nil, err
	}
	fh, _, err := c.lookup(p, dir, name)
	if err != nil {
		return nil, err
	}
	return &File{c: c, fh: fh}, nil
}

// Mkdir creates a directory at path.
func (c *Client) Mkdir(p *des.Proc, path string) error {
	dir, name, err := c.resolvePath(p, path)
	if err != nil {
		return err
	}
	_, _, err = c.NFS.Mkdir(p, dir, name, 0755)
	return err
}

// Remove unlinks the file at path.
func (c *Client) Remove(p *des.Proc, path string) error {
	dir, name, err := c.resolvePath(p, path)
	if err != nil {
		return err
	}
	if c.attrCache != nil {
		c.attrCache.invalidateLookup(dir, name)
	}
	return c.NFS.Remove(p, dir, name)
}

// ReadAt reads up to n bytes at off into buf[bufOff:]. directIO selects the
// zero-copy placement path (Read-Write design only; the Read-Read design
// always stages and copies, per §5.1).
func (f *File) ReadAt(p *des.Proc, buf *Buffer, bufOff int, off int64, n int, directIO bool) (int, bool, error) {
	res, err := f.c.NFS.Read(p, f.fh, uint64(off), buf.bulk(bufOff, n), directIO)
	if err != nil {
		return 0, false, err
	}
	return int(res.Count), res.EOF, nil
}

// WriteAt writes n bytes from buf[bufOff:] at off.
func (f *File) WriteAt(p *des.Proc, buf *Buffer, bufOff int, off int64, n int, stable bool) (int, error) {
	st := uint32(nfs3.Unstable)
	if stable {
		st = nfs3.FileSync
	}
	res, err := f.c.NFS.Write(p, f.fh, uint64(off), buf.bulk(bufOff, n), st)
	if err != nil {
		return 0, err
	}
	if ac := f.c.attrCache; ac != nil {
		if res.Wcc.Post.Present {
			ac.putAttr(f.fh, res.Wcc.Post.Attr)
		} else {
			ac.invalidate(f.fh)
		}
	}
	return int(res.Count), nil
}

// Commit flushes unstable writes (NFSv3 COMMIT).
func (f *File) Commit(p *des.Proc) error {
	_, err := f.c.NFS.Commit(p, f.fh, 0, 0)
	return err
}

// Size returns the file's current size, served from the attribute cache
// when fresh.
func (f *File) Size(p *des.Proc) (int64, error) {
	if ac := f.c.attrCache; ac != nil {
		if attr, ok := ac.getAttr(f.fh); ok {
			return int64(attr.Size), nil
		}
	}
	attr, err := f.c.NFS.GetAttr(p, f.fh)
	if err != nil {
		return 0, err
	}
	if ac := f.c.attrCache; ac != nil {
		ac.putAttr(f.fh, attr)
	}
	return int64(attr.Size), nil
}

// Truncate sets the file size.
func (f *File) Truncate(p *des.Proc, size int64) error {
	sz := uint64(size)
	if ac := f.c.attrCache; ac != nil {
		ac.invalidate(f.fh)
	}
	return f.c.NFS.SetAttr(p, f.fh, nfs3.SAttr{Size: &sz})
}
