package nfs3

import (
	"maps"
	"slices"

	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// The MOUNT version 3 protocol (RFC 1813 appendix I): how a real NFS
// client obtains the root file handle of an export instead of receiving it
// out of band. It is a separate ONC RPC program sharing the transport.

// MOUNT program identity.
const (
	MountProgram = 100005
	MountVersion = 3
)

// MOUNT procedures (the subset real clients use).
const (
	MountProcNull   = 0
	MountProcMnt    = 1
	MountProcUmnt   = 3
	MountProcExport = 5
)

// Mount status codes.
const (
	MountOK             = 0
	MountErrNoEnt       = 2
	MountErrAcces       = 13
	MountErrNotDir      = 20
	MountErrServerFault = 10006
)

// MountServer implements the MOUNT program over an export table.
// It implements oncrpc.Service.
type MountServer struct {
	nfs *Server
	// exports maps export path -> directory FileID within the server FS.
	exports map[string]vfs.FileID
	// mounts records active mounts per client machine name.
	mounts map[string][]string
}

var _ oncrpc.Service = (*MountServer)(nil)

// NewMountServer exports the NFS server's root as "/" plus any additional
// named exports.
func NewMountServer(nfs *Server) *MountServer {
	return &MountServer{
		nfs:     nfs,
		exports: map[string]vfs.FileID{"/": vfs.FileID(nfs.RootFH().FileID)},
		mounts:  make(map[string][]string),
	}
}

// AddExport exposes the directory with the given file id under path.
func (m *MountServer) AddExport(path string, dir vfs.FileID) {
	m.exports[path] = dir
}

// Name implements oncrpc.Service.
func (m *MountServer) Name() string { return "mountd" }

// Program implements oncrpc.Service.
func (m *MountServer) Program() uint32 { return MountProgram }

// Version implements oncrpc.Service.
func (m *MountServer) Version() uint32 { return MountVersion }

// ActiveMounts returns the number of recorded mounts for a machine.
func (m *MountServer) ActiveMounts(machine string) int { return len(m.mounts[machine]) }

// MountRes is mountres3: the status and, for MNT3_OK, the export's handle
// and its one auth flavor, AUTH_SYS.
type MountRes struct {
	Status Status
	FH     FH
}

// XDR codes the result.
func (r *MountRes) XDR(c *xdr.Codec) {
	r.Status.XDR(c)
	if r.Status == MountOK {
		r.FH.XDR(c)
		c.Const(1) // auth flavor count
		c.Const(uint32(oncrpc.AuthSys))
	}
}

// Exports is exports: the export paths, each with an empty group list.
type Exports []string

// XDR codes the list.
func (l *Exports) XDR(c *xdr.Codec) {
	c.List(len(*l), func(i int) {
		if c.Decoding() {
			*l = append(*l, "")
		}
		c.String(&(*l)[i])
		c.Const(0) // no groups
	})
}

// HandleThen implements oncrpc.Service. No procedure waits.
func (m *MountServer) HandleThen(req *oncrpc.ServerRequest, resp *oncrpc.ServerResponse, fn func(any), arg any) {
	*resp = oncrpc.ServerResponse{Stat: oncrpc.Success}
	args, res := xdr.DecodeFrom(req.Args), xdr.EncodeTo(&req.Reply)
	var path string
	machine := req.Header.Cred.Machine
	switch req.Header.Proc {
	case MountProcNull:
	case MountProcMnt:
		r := MountRes{Status: MountErrNoEnt}
		if args.String(&path); args.Err() != nil {
			r.Status = MountErrServerFault
		} else if dir, ok := m.exports[path]; ok {
			r = MountRes{Status: MountOK, FH: FH{FSID: m.nfs.cfg.FSID, FileID: uint64(dir)}}
			m.mounts[machine] = append(m.mounts[machine], path)
		}
		r.XDR(&res)
	case MountProcUmnt:
		args.String(&path)
		list := m.mounts[machine]
		for i, have := range list {
			if have == path {
				m.mounts[machine] = append(list[:i], list[i+1:]...)
				break
			}
		}
	case MountProcExport:
		// "/" first, then the other paths sorted.
		l := Exports{"/"}
		for _, path := range slices.Sorted(maps.Keys(m.exports)) {
			if path != "/" {
				l = append(l, path)
			}
		}
		l.XDR(&res)
	default:
		resp.Stat = oncrpc.ProcUnavail
	}
	fn(arg)
}

// MountClient speaks the MOUNT program.
type MountClient struct{ c Client }

// NewMountClient wraps a transport as a MOUNT client.
func NewMountClient(t oncrpc.Transport, machine string) *MountClient {
	cred := oncrpc.Auth{Flavor: oncrpc.AuthSys, Machine: machine}
	return &MountClient{Client{rpc: oncrpc.NewClient(t, MountProgram, MountVersion, cred), machine: machine}}
}

// Mount obtains the root file handle of the export at path.
func (c *MountClient) Mount(p *des.Proc, path string) (FH, error) {
	var r MountRes
	_, err := c.c.call(p, MountProcMnt, func(c *xdr.Codec) { c.String(&path) }, r.XDR, &r.Status, oncrpc.CallOpts{})
	return r.FH, err
}

// Unmount releases a mount record at the server.
func (c *MountClient) Unmount(p *des.Proc, path string) error {
	_, err := c.c.call(p, MountProcUmnt, func(c *xdr.Codec) { c.String(&path) }, nil, nil, oncrpc.CallOpts{})
	return err
}

// Exports lists the server's export paths.
func (c *MountClient) Exports(p *des.Proc) ([]string, error) {
	var l Exports
	_, err := c.c.call(p, MountProcExport, nil, l.XDR, nil, oncrpc.CallOpts{})
	return l, err
}
