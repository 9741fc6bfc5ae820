package nfs3

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

func mountPair(t *testing.T) (*des.Sim, *MountClient, *MountServer, *Server) {
	t.Helper()
	sim := des.New()
	fs := vfs.NewNamespace(sim, vfs.NewMemStore(true), 1<<40)
	srv := NewServer(fs, ServerConfig{})
	ms := NewMountServer(srv)
	d := oncrpc.NewDispatcher()
	d.Register(srv)
	d.Register(ms)
	return sim, NewMountClient(&loopback{d: d}, "clientA"), ms, srv
}

func TestMountReturnsRootHandle(t *testing.T) {
	sim, mc, ms, srv := mountPair(t)
	sim.Spawn("m", func(p *des.Proc) {
		fh, err := mc.Mount(p, "/")
		if err != nil {
			t.Errorf("mount: %v", err)
			return
		}
		if fh != srv.RootFH() {
			t.Errorf("fh = %+v, want root %+v", fh, srv.RootFH())
		}
		if ms.ActiveMounts("clientA") != 1 {
			t.Errorf("active mounts = %d", ms.ActiveMounts("clientA"))
		}
		if err := mc.Unmount(p, "/"); err != nil {
			t.Errorf("umnt: %v", err)
		}
		if ms.ActiveMounts("clientA") != 0 {
			t.Errorf("mounts after umnt = %d", ms.ActiveMounts("clientA"))
		}
	})
	sim.Run()
}

func TestMountUnknownExport(t *testing.T) {
	sim, mc, _, _ := mountPair(t)
	sim.Spawn("m", func(p *des.Proc) {
		_, err := mc.Mount(p, "/nope")
		var se *StatusError
		if !errors.As(err, &se) || se.Status != ErrNoEnt {
			t.Errorf("err = %v, want NOENT", err)
		}
	})
	sim.Run()
}

func TestMountSubExport(t *testing.T) {
	sim, mc, ms, srv := mountPair(t)
	sim.Spawn("m", func(p *des.Proc) {
		// Create a subdirectory and export it.
		fs := srv.fs
		id, _, err := fs.Mkdir(p, fs.Root(), "projects", 0755)
		if err != nil {
			t.Fatal(err)
		}
		ms.AddExport("/projects", id)
		fh, err := mc.Mount(p, "/projects")
		if err != nil {
			t.Errorf("mount sub: %v", err)
			return
		}
		if fh.FileID != uint64(id) {
			t.Errorf("fh.FileID = %d, want %d", fh.FileID, id)
		}
		exports, err := mc.Exports(p)
		if err != nil || len(exports) != 2 {
			t.Errorf("exports = %v %v", exports, err)
		}
	})
	sim.Run()
}

// TestMountExportsSorted: EXPORT lists "/" and then the other paths sorted,
// the same on every call, whatever order they were added in.
func TestMountExportsSorted(t *testing.T) {
	sim, mc, ms, srv := mountPair(t)
	sim.Spawn("m", func(p *des.Proc) {
		for _, name := range []string{"srv", "home", "data"} {
			id, _, err := srv.fs.Mkdir(p, srv.fs.Root(), name, 0755)
			if err != nil {
				t.Errorf("mkdir %s: %v", name, err)
				return
			}
			ms.AddExport("/"+name, id)
		}
		want := []string{"/", "/data", "/home", "/srv"}
		for i := 0; i < 20; i++ {
			if got, err := mc.Exports(p); err != nil || !slices.Equal(got, want) {
				t.Errorf("call %d: exports = %q %v, want %q", i, got, err, want)
				return
			}
		}
	})
	sim.Run()
}
