package nfs3

import (
	"slices"

	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xdr"
)

// procHistNames are precomputed so the traced call path never builds a
// string per RPC.
var procHistNames [len(procs)]string

func init() {
	for i := range procHistNames {
		procHistNames[i] = "nfs." + procs[i].name
	}
}

// Client provides typed NFSv3 procedure stubs over an ONC RPC client.
// Payload placement (READ data destinations, WRITE data sources) is passed
// through to the transport untouched: the RPC/RDMA transport turns it into
// chunk lists, the stream transport into inline data.
type Client struct {
	rpc     *oncrpc.Client
	machine string

	// codec is what call encodes arguments and decodes results through. It
	// lives here, not on call's stack, because an XDR method called through a
	// func value would move it to the heap on every call; the simulation runs
	// one process at a time and no XDR method blocks, so no two calls use it
	// at once.
	codec xdr.Codec

	// entries is what ReadDir decodes a listing into before it copies it
	// out, taken when a reply decodes, not while its call waits.
	entries []DirEntry3

	// latency, when non-nil, records one histogram per procedure.
	latency []*stats.Histogram
	sim     *des.Sim
}

// AttachSim binds the client to its simulation so the call path can reach
// the structured tracer (EnableLatencyStats does the same as a side effect).
func (c *Client) AttachSim(sim *des.Sim) { c.sim = sim }

// EnableLatencyStats starts per-procedure latency recording.
func (c *Client) EnableLatencyStats(sim *des.Sim) {
	c.sim = sim
	c.latency = make([]*stats.Histogram, len(procs))
	for i := range c.latency {
		c.latency[i] = &stats.Histogram{}
	}
}

// Latency returns the histogram for a procedure, or nil when recording is
// off.
func (c *Client) Latency(proc uint32) *stats.Histogram {
	if c.latency == nil || int(proc) >= len(c.latency) {
		return nil
	}
	return c.latency[proc]
}

// call performs one procedure: args (nil for none) writes its arguments
// and res (nil for none) reads its results. The error is the transport's or
// the decoding's, else the status *st holds when st is not nil. It returns
// how many payload bytes were placed into opts.RecvBulk, and records the
// call's latency and procedure span when those are on.
func (c *Client) call(p *des.Proc, proc uint32, args, res func(*xdr.Codec), st *Status, opts oncrpc.CallOpts) (int, error) {
	var enc func(*xdr.Encoder)
	if args != nil {
		enc = func(e *xdr.Encoder) {
			c.codec = xdr.EncodeTo(e)
			args(&c.codec)
		}
	}
	var tr *trace.Tracer
	if c.sim != nil {
		tr = c.sim.Tracer()
	}
	start := p.Now()
	results, n, err := c.rpc.Call(p, proc, enc, opts)
	if c.latency != nil || tr != nil {
		elapsed := float64(p.Now()-start) / 1e3
		if c.latency != nil && int(proc) < len(c.latency) {
			c.latency[proc].Observe(elapsed)
		}
		if tr != nil && int(proc) < len(procs) {
			var errFlag int64
			if err != nil {
				errFlag = 1
			}
			tr.Span(int64(start), int64(p.Now()), trace.LayerNFS, trace.KindNFSProc, c.machine, procs[proc].name, uint64(proc), errFlag)
			tr.Observe(procHistNames[proc], elapsed)
		}
	}
	if err != nil || res == nil {
		return n, err
	}
	c.codec = xdr.DecodeFrom(results)
	if res(&c.codec); c.codec.Err() != nil || st == nil {
		return n, c.codec.Err()
	}
	return n, st.Err()
}

// NewClient wraps transport t as an NFSv3 client.
func NewClient(t oncrpc.Transport, machine string) *Client {
	cred := oncrpc.Auth{Flavor: oncrpc.AuthSys, Machine: machine, UID: 0, GID: 0}
	return &Client{rpc: oncrpc.NewClient(t, Program, Version, cred), machine: machine}
}

// Close shuts the transport down.
func (c *Client) Close() { c.rpc.Close() }

// SetTransport swaps the transport under the client (reconnect), keeping
// XID continuity.
func (c *Client) SetTransport(t oncrpc.Transport) { c.rpc.SetTransport(t) }

// Null performs NULL (transport ping).
func (c *Client) Null(p *des.Proc) error {
	_, err := c.call(p, ProcNull, nil, nil, nil, oncrpc.CallOpts{})
	return err
}

// GetAttr performs GETATTR.
func (c *Client) GetAttr(p *des.Proc, fh FH) (FAttr, error) {
	var r GetAttrRes
	_, err := c.call(p, ProcGetAttr, (&GetAttrArgs{FH: fh}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.Attr, err
}

// SetAttr performs SETATTR.
func (c *Client) SetAttr(p *des.Proc, fh FH, attr SAttr) error {
	var r WccRes
	_, err := c.call(p, ProcSetAttr, (&SetAttrArgs{FH: fh, Attr: attr}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return err
}

// Lookup performs LOOKUP.
func (c *Client) Lookup(p *des.Proc, dir FH, name string) (FH, FAttr, error) {
	var r LookupRes
	_, err := c.call(p, ProcLookup, (&DirOpArgs{Dir: dir, Name: name}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.Object, r.ObjAttr.Attr, err
}

// Access performs ACCESS.
func (c *Client) Access(p *des.Proc, fh FH, mask uint32) (uint32, error) {
	var r AccessRes
	_, err := c.call(p, ProcAccess, (&AccessArgs{FH: fh, Access: mask}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.Access, err
}

// ReadLink performs READLINK. Large link targets make the reply exceed the
// inline threshold, exercising the transport's long-reply path.
func (c *Client) ReadLink(p *des.Proc, fh FH) (string, error) {
	var r ReadLinkRes
	_, err := c.call(p, ProcReadLink, (&GetAttrArgs{FH: fh}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{LongReplyCap: 4096})
	return r.Path, err
}

// Read performs READ. dst describes the payload destination: its Len is the
// requested count; Data (when non-nil) receives the bytes; Handle may carry
// a placement token for the RDMA transport. directIO marks dst as
// application memory for the zero-copy path.
func (c *Client) Read(p *des.Proc, fh FH, offset uint64, dst *oncrpc.Bulk, directIO bool) (ReadRes, error) {
	var r ReadRes
	args := ReadArgs{FH: fh, Offset: offset, Count: uint32(dst.Len)}
	n, err := c.call(p, ProcRead, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{RecvBulk: dst, DirectIO: directIO})
	if int(r.Count) > n {
		// Placement must have delivered every byte the reply claims.
		r.Count = uint32(n)
	}
	return r, err
}

// Write performs WRITE. src describes the payload source.
func (c *Client) Write(p *des.Proc, fh FH, offset uint64, src *oncrpc.Bulk, stable uint32) (WriteRes, error) {
	var r WriteRes
	args := WriteArgs{FH: fh, Offset: offset, Count: uint32(src.Len), Stable: stable}
	_, err := c.call(p, ProcWrite, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{SendBulk: src})
	return r, err
}

// Create performs CREATE (UNCHECKED).
func (c *Client) Create(p *des.Proc, dir FH, name string, mode uint32) (FH, FAttr, error) {
	var r CreateRes
	args := CreateArgs{Where: DirOpArgs{Dir: dir, Name: name}, Attr: SAttr{Mode: &mode}}
	_, err := c.call(p, ProcCreate, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.FH, r.Attr.Attr, err
}

// Mkdir performs MKDIR.
func (c *Client) Mkdir(p *des.Proc, dir FH, name string, mode uint32) (FH, FAttr, error) {
	var r CreateRes
	args := MkdirArgs{Where: DirOpArgs{Dir: dir, Name: name}, Attr: SAttr{Mode: &mode}}
	_, err := c.call(p, ProcMkdir, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.FH, r.Attr.Attr, err
}

// Symlink performs SYMLINK.
func (c *Client) Symlink(p *des.Proc, dir FH, name, target string) (FH, error) {
	var r CreateRes
	args := SymlinkArgs{Where: DirOpArgs{Dir: dir, Name: name}, Target: target}
	_, err := c.call(p, ProcSymlink, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.FH, err
}

// Remove performs REMOVE.
func (c *Client) Remove(p *des.Proc, dir FH, name string) error {
	var r WccRes
	_, err := c.call(p, ProcRemove, (&DirOpArgs{Dir: dir, Name: name}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return err
}

// Rmdir performs RMDIR.
func (c *Client) Rmdir(p *des.Proc, dir FH, name string) error {
	var r WccRes
	_, err := c.call(p, ProcRmdir, (&DirOpArgs{Dir: dir, Name: name}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return err
}

// Rename performs RENAME.
func (c *Client) Rename(p *des.Proc, fromDir FH, fromName string, toDir FH, toName string) error {
	var r RenameRes
	args := RenameArgs{From: DirOpArgs{Dir: fromDir, Name: fromName}, To: DirOpArgs{Dir: toDir, Name: toName}}
	_, err := c.call(p, ProcRename, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return err
}

// Link performs LINK.
func (c *Client) Link(p *des.Proc, fh FH, dir FH, name string) error {
	var r LinkRes
	args := LinkArgs{FH: fh, Link: DirOpArgs{Dir: dir, Name: name}}
	_, err := c.call(p, ProcLink, args.XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return err
}

// ReadDir performs READDIR (or READDIRPLUS when plus is set). Directory
// listings larger than the inline threshold exercise the transport's
// long-reply path — the paper's RPC Long Reply. The entries are the
// caller's: a copy of what the client decoded them into.
func (c *Client) ReadDir(p *des.Proc, dir FH, cookie uint64, count uint32, plus bool) (ReadDirRes, error) {
	proc := uint32(ProcReadDir)
	if plus {
		proc = ProcReadDirPlus
	}
	r := ReadDirRes{Plus: plus}
	args := ReadDirArgs{Dir: dir, Cookie: cookie, DirCount: count, Count: count, Plus: plus}
	res := func(cd *xdr.Codec) {
		r.Entries = c.entries[:0]
		r.XDR(cd)
		c.entries = r.Entries
	}
	_, err := c.call(p, proc, args.XDR, res, &r.Status, oncrpc.CallOpts{LongReplyCap: int(count) + 512})
	r.Entries = slices.Clone(r.Entries)
	return r, err
}

// FSStat performs FSSTAT.
func (c *Client) FSStat(p *des.Proc, fh FH) (FSStatRes, error) {
	var r FSStatRes
	_, err := c.call(p, ProcFSStat, (&GetAttrArgs{FH: fh}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r, err
}

// FSInfo performs FSINFO.
func (c *Client) FSInfo(p *des.Proc, fh FH) (FSInfoRes, error) {
	var r FSInfoRes
	_, err := c.call(p, ProcFSInfo, (&GetAttrArgs{FH: fh}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r, err
}

// PathConf performs PATHCONF.
func (c *Client) PathConf(p *des.Proc, fh FH) (PathConfRes, error) {
	var r PathConfRes
	_, err := c.call(p, ProcPathConf, (&GetAttrArgs{FH: fh}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r, err
}

// Commit performs COMMIT.
func (c *Client) Commit(p *des.Proc, fh FH, offset uint64, count uint32) (CommitRes, error) {
	var r CommitRes
	_, err := c.call(p, ProcCommit, (&CommitArgs{FH: fh, Offset: offset, Count: count}).XDR, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r, err
}
