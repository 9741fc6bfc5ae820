package nfs3

import (
	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xdr"
)

// procTraceNames/procHistNames are precomputed so the traced call path never
// builds a string per RPC.
var (
	procTraceNames [22]string
	procHistNames  [22]string
)

func init() {
	for i := range procTraceNames {
		procTraceNames[i] = ProcName(uint32(i))
		procHistNames[i] = "nfs." + procTraceNames[i]
	}
}

// Client provides typed NFSv3 procedure stubs over an ONC RPC client.
// Payload placement (READ data destinations, WRITE data sources) is passed
// through to the transport untouched: the RPC/RDMA transport turns it into
// chunk lists, the stream transport into inline data.
type Client struct {
	rpc     *oncrpc.Client
	machine string

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
	c.latency = make([]*stats.Histogram, 22)
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

// call wraps the RPC with latency recording and procedure-span tracing.
func (c *Client) call(p *des.Proc, proc uint32, args func(*xdr.Encoder), opts oncrpc.CallOpts) ([]byte, int, error) {
	var tr *trace.Tracer
	if c.sim != nil {
		tr = c.sim.Tracer()
	}
	if c.latency == nil && tr == nil {
		return c.rpc.Call(p, proc, args, opts)
	}
	start := p.Now()
	res, n, err := c.rpc.Call(p, proc, args, opts)
	elapsed := float64(p.Now()-start) / 1e3
	if c.latency != nil && int(proc) < len(c.latency) {
		c.latency[proc].Observe(elapsed)
	}
	if tr != nil && int(proc) < len(procTraceNames) {
		var errFlag int64
		if err != nil {
			errFlag = 1
		}
		tr.Span(int64(start), int64(p.Now()), trace.LayerNFS, trace.KindNFSProc, c.machine, procTraceNames[proc], uint64(proc), errFlag)
		tr.Observe(procHistNames[proc], elapsed)
	}
	return res, n, err
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
	_, _, err := c.call(p, ProcNull, nil, oncrpc.CallOpts{})
	return err
}

// GetAttr performs GETATTR.
func (c *Client) GetAttr(p *des.Proc, fh FH) (FAttr, error) {
	res, _, err := c.call(p, ProcGetAttr, (&GetAttrArgs{FH: fh}).Encode, oncrpc.CallOpts{})
	if err != nil {
		return FAttr{}, err
	}
	r, err := DecodeGetAttrRes(xdr.NewDecoder(res))
	if err != nil {
		return FAttr{}, err
	}
	return r.Attr, r.Status.Err()
}

// SetAttr performs SETATTR.
func (c *Client) SetAttr(p *des.Proc, fh FH, attr SAttr) error {
	args := SetAttrArgs{FH: fh, Attr: attr}
	res, _, err := c.call(p, ProcSetAttr, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return err
	}
	r, err := DecodeWccRes(xdr.NewDecoder(res))
	if err != nil {
		return err
	}
	return r.Status.Err()
}

// Lookup performs LOOKUP.
func (c *Client) Lookup(p *des.Proc, dir FH, name string) (FH, FAttr, error) {
	args := DirOpArgs{Dir: dir, Name: name}
	res, _, err := c.call(p, ProcLookup, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return FH{}, FAttr{}, err
	}
	r, err := DecodeLookupRes(xdr.NewDecoder(res))
	if err != nil {
		return FH{}, FAttr{}, err
	}
	return r.Object, r.ObjAttr.Attr, r.Status.Err()
}

// Access performs ACCESS.
func (c *Client) Access(p *des.Proc, fh FH, mask uint32) (uint32, error) {
	args := AccessArgs{FH: fh, Access: mask}
	res, _, err := c.call(p, ProcAccess, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return 0, err
	}
	r, err := DecodeAccessRes(xdr.NewDecoder(res))
	if err != nil {
		return 0, err
	}
	return r.Access, r.Status.Err()
}

// ReadLink performs READLINK. Large link targets make the reply exceed the
// inline threshold, exercising the transport's long-reply path.
func (c *Client) ReadLink(p *des.Proc, fh FH) (string, error) {
	res, _, err := c.call(p, ProcReadLink,
		(&GetAttrArgs{FH: fh}).Encode,
		oncrpc.CallOpts{LongReplyCap: 4096})
	if err != nil {
		return "", err
	}
	r, err := DecodeReadLinkRes(xdr.NewDecoder(res))
	if err != nil {
		return "", err
	}
	return r.Path, r.Status.Err()
}

// Read performs READ. dst describes the payload destination: its Len is the
// requested count; Data (when non-nil) receives the bytes; Handle may carry
// a placement token for the RDMA transport. directIO marks dst as
// application memory for the zero-copy path.
func (c *Client) Read(p *des.Proc, fh FH, offset uint64, dst *oncrpc.Bulk, directIO bool) (ReadRes, error) {
	args := ReadArgs{FH: fh, Offset: offset, Count: uint32(dst.Len)}
	res, n, err := c.call(p, ProcRead, args.Encode, oncrpc.CallOpts{
		RecvBulk: dst,
		DirectIO: directIO,
	})
	if err != nil {
		return ReadRes{}, err
	}
	r, err := DecodeReadRes(xdr.NewDecoder(res))
	if err != nil {
		return ReadRes{}, err
	}
	if int(r.Count) > n {
		// Placement must have delivered every byte the reply claims.
		r.Count = uint32(n)
	}
	return r, r.Status.Err()
}

// Write performs WRITE. src describes the payload source.
func (c *Client) Write(p *des.Proc, fh FH, offset uint64, src *oncrpc.Bulk, stable uint32) (WriteRes, error) {
	args := WriteArgs{FH: fh, Offset: offset, Count: uint32(src.Len), Stable: stable}
	res, _, err := c.call(p, ProcWrite, args.Encode, oncrpc.CallOpts{
		SendBulk: src,
	})
	if err != nil {
		return WriteRes{}, err
	}
	r, err := DecodeWriteRes(xdr.NewDecoder(res))
	if err != nil {
		return WriteRes{}, err
	}
	return r, r.Status.Err()
}

// Create performs CREATE (UNCHECKED).
func (c *Client) Create(p *des.Proc, dir FH, name string, mode uint32) (FH, FAttr, error) {
	args := CreateArgs{Where: DirOpArgs{Dir: dir, Name: name}, Attr: SAttr{Mode: &mode}}
	res, _, err := c.call(p, ProcCreate, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return FH{}, FAttr{}, err
	}
	r, err := DecodeCreateRes(xdr.NewDecoder(res))
	if err != nil {
		return FH{}, FAttr{}, err
	}
	return r.FH, r.Attr.Attr, r.Status.Err()
}

// Mkdir performs MKDIR.
func (c *Client) Mkdir(p *des.Proc, dir FH, name string, mode uint32) (FH, FAttr, error) {
	args := MkdirArgs{Where: DirOpArgs{Dir: dir, Name: name}, Attr: SAttr{Mode: &mode}}
	res, _, err := c.call(p, ProcMkdir, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return FH{}, FAttr{}, err
	}
	r, err := DecodeCreateRes(xdr.NewDecoder(res))
	if err != nil {
		return FH{}, FAttr{}, err
	}
	return r.FH, r.Attr.Attr, r.Status.Err()
}

// Symlink performs SYMLINK.
func (c *Client) Symlink(p *des.Proc, dir FH, name, target string) (FH, error) {
	args := SymlinkArgs{Where: DirOpArgs{Dir: dir, Name: name}, Target: target}
	res, _, err := c.call(p, ProcSymlink, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return FH{}, err
	}
	r, err := DecodeCreateRes(xdr.NewDecoder(res))
	if err != nil {
		return FH{}, err
	}
	return r.FH, r.Status.Err()
}

// Remove performs REMOVE.
func (c *Client) Remove(p *des.Proc, dir FH, name string) error {
	args := DirOpArgs{Dir: dir, Name: name}
	res, _, err := c.call(p, ProcRemove, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return err
	}
	r, err := DecodeWccRes(xdr.NewDecoder(res))
	if err != nil {
		return err
	}
	return r.Status.Err()
}

// Rmdir performs RMDIR.
func (c *Client) Rmdir(p *des.Proc, dir FH, name string) error {
	args := DirOpArgs{Dir: dir, Name: name}
	res, _, err := c.call(p, ProcRmdir, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return err
	}
	r, err := DecodeWccRes(xdr.NewDecoder(res))
	if err != nil {
		return err
	}
	return r.Status.Err()
}

// Rename performs RENAME.
func (c *Client) Rename(p *des.Proc, fromDir FH, fromName string, toDir FH, toName string) error {
	args := RenameArgs{From: DirOpArgs{Dir: fromDir, Name: fromName}, To: DirOpArgs{Dir: toDir, Name: toName}}
	res, _, err := c.call(p, ProcRename, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return err
	}
	r, err := DecodeRenameRes(xdr.NewDecoder(res))
	if err != nil {
		return err
	}
	return r.Status.Err()
}

// Link performs LINK.
func (c *Client) Link(p *des.Proc, fh FH, dir FH, name string) error {
	args := LinkArgs{FH: fh, Link: DirOpArgs{Dir: dir, Name: name}}
	res, _, err := c.call(p, ProcLink, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return err
	}
	r, err := DecodeLinkRes(xdr.NewDecoder(res))
	if err != nil {
		return err
	}
	return r.Status.Err()
}

// ReadDir performs READDIR (or READDIRPLUS when plus is set). Directory
// listings larger than the inline threshold exercise the transport's
// long-reply path — the paper's RPC Long Reply.
func (c *Client) ReadDir(p *des.Proc, dir FH, cookie uint64, count uint32, plus bool) (ReadDirRes, error) {
	proc := uint32(ProcReadDir)
	if plus {
		proc = ProcReadDirPlus
	}
	args := ReadDirArgs{Dir: dir, Cookie: cookie, Count: count, Plus: plus}
	res, _, err := c.call(p, proc, args.Encode, oncrpc.CallOpts{
		LongReplyCap: int(count) + 512,
	})
	if err != nil {
		return ReadDirRes{}, err
	}
	r, err := DecodeReadDirRes(xdr.NewDecoder(res), plus)
	if err != nil {
		return ReadDirRes{}, err
	}
	return r, r.Status.Err()
}

// FSStat performs FSSTAT.
func (c *Client) FSStat(p *des.Proc, fh FH) (FSStatRes, error) {
	res, _, err := c.call(p, ProcFSStat, (&GetAttrArgs{FH: fh}).Encode, oncrpc.CallOpts{})
	if err != nil {
		return FSStatRes{}, err
	}
	r, err := DecodeFSStatRes(xdr.NewDecoder(res))
	if err != nil {
		return FSStatRes{}, err
	}
	return r, r.Status.Err()
}

// FSInfo performs FSINFO.
func (c *Client) FSInfo(p *des.Proc, fh FH) (FSInfoRes, error) {
	res, _, err := c.call(p, ProcFSInfo, (&GetAttrArgs{FH: fh}).Encode, oncrpc.CallOpts{})
	if err != nil {
		return FSInfoRes{}, err
	}
	r, err := DecodeFSInfoRes(xdr.NewDecoder(res))
	if err != nil {
		return FSInfoRes{}, err
	}
	return r, r.Status.Err()
}

// PathConf performs PATHCONF.
func (c *Client) PathConf(p *des.Proc, fh FH) (PathConfRes, error) {
	res, _, err := c.call(p, ProcPathConf, (&GetAttrArgs{FH: fh}).Encode, oncrpc.CallOpts{})
	if err != nil {
		return PathConfRes{}, err
	}
	r, err := DecodePathConfRes(xdr.NewDecoder(res))
	if err != nil {
		return PathConfRes{}, err
	}
	return r, r.Status.Err()
}

// Commit performs COMMIT.
func (c *Client) Commit(p *des.Proc, fh FH, offset uint64, count uint32) (CommitRes, error) {
	args := CommitArgs{FH: fh, Offset: offset, Count: count}
	res, _, err := c.call(p, ProcCommit, args.Encode, oncrpc.CallOpts{})
	if err != nil {
		return CommitRes{}, err
	}
	r, err := DecodeCommitRes(xdr.NewDecoder(res))
	if err != nil {
		return CommitRes{}, err
	}
	return r, r.Status.Err()
}
