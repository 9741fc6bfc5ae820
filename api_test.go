package nfsrdma

// Tests of the public facade: the README / doc.go snippets must work as
// written, and the re-exported surface must stay wired to the internals.

import (
	"reflect"
	"testing"
	"time"
)

func TestQuickstartSnippet(t *testing.T) {
	cluster := NewCluster(Config{
		Profile:   SolarisSDR(),
		Transport: TransportRDMA,
		Design:    DesignReadWrite,
		RegMode:   RegCache,
		CopyData:  true,
	})
	client := cluster.Clients[0]
	ok := false
	cluster.Start("app", func(p *Proc) {
		f, err := client.Create(p, "hello.txt")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		msg := "hello over simulated RDMA"
		buf := client.NewMaterializedBuffer(64)
		copy(buf.Bytes(), msg)
		if _, err := f.WriteAt(p, buf, 0, 0, len(msg), true); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		rbuf := client.NewMaterializedBuffer(64)
		n, _, err := f.ReadAt(p, rbuf, 0, 0, len(msg), true)
		if err != nil || n != len(msg) || string(rbuf.Bytes()[:n]) != msg {
			t.Errorf("read: n=%d %q %v", n, rbuf.Bytes()[:n], err)
			return
		}
		ok = true
	})
	if end := cluster.Run(); end <= 0 {
		t.Error("no simulated time elapsed")
	}
	if !ok {
		t.Fatal("snippet did not complete")
	}
}

func TestPublicWorkloadEntryPoints(t *testing.T) {
	cluster := NewCluster(Config{
		Profile:   LinuxSDR(),
		Transport: TransportRDMA,
		Design:    DesignReadWrite,
		RegMode:   RegAllPhysical,
	})
	cluster.Start("io", func(p *Proc) {
		res, err := RunIOzone(p, cluster, IOzoneConfig{
			Threads: 2, FileSize: 2 << 20, RecordSize: 128 << 10,
		})
		if err != nil || res.Read.MBps <= 0 {
			t.Errorf("iozone via facade: %+v %v", res, err)
		}
		oltp, err := RunOLTP(p, cluster, OLTPConfig{
			Readers: 4, MeanIO: 64 << 10, FileSize: 8 << 20,
			Duration: 20 * time.Millisecond,
		})
		if err != nil || oltp.Ops == 0 {
			t.Errorf("oltp via facade: %+v %v", oltp, err)
		}
	})
	cluster.Run()
}

func TestTransportAndModeStringers(t *testing.T) {
	cases := map[string]string{
		TransportRDMA.String():    "rdma",
		TransportIPoIB.String():   "ipoib",
		TransportGigE.String():    "gige",
		DesignReadWrite.String():  "read-write",
		DesignReadRead.String():   "read-read",
		DesignReplyFetch.String(): "reply-fetch",
		RegDynamic.String():       "register",
		RegFMR.String():           "fmr",
		RegAllPhysical.String():   "all-physical",
		RegCache.String():         "cache",
		BackendTmpfs.String():     "tmpfs",
		BackendDisk.String():      "disk",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("stringer = %q, want %q", got, want)
		}
	}
	// Every name parses back to the value that printed it, and nothing else
	// parses.
	for _, v := range []Transport{TransportRDMA, TransportIPoIB, TransportGigE} {
		if got, err := ParseTransport(v.String()); err != nil || got != v {
			t.Errorf("ParseTransport(%q) = %v, %v", v, got, err)
		}
	}
	for _, v := range []Design{DesignReadWrite, DesignReadRead, DesignReplyFetch} {
		if got, err := ParseDesign(v.String()); err != nil || got != v {
			t.Errorf("ParseDesign(%q) = %v, %v", v, got, err)
		}
	}
	for _, v := range []RegMode{RegDynamic, RegFMR, RegAllPhysical, RegCache} {
		if got, err := ParseRegMode(v.String()); err != nil || got != v {
			t.Errorf("ParseRegMode(%q) = %v, %v", v, got, err)
		}
	}
	for _, profile := range []func() Profile{SolarisSDR, LinuxSDR, LinuxDDR} {
		want := profile()
		if got, err := ParseProfile(want.Name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseProfile(%q) = %+v, %v", want.Name, got, err)
		}
	}
	const unknown = "no-such-name"
	if _, err := ParseTransport(unknown); err == nil {
		t.Error("ParseTransport accepted an unknown name")
	}
	if _, err := ParseDesign(unknown); err == nil {
		t.Error("ParseDesign accepted an unknown name")
	}
	if _, err := ParseRegMode(unknown); err == nil {
		t.Error("ParseRegMode accepted an unknown name")
	}
	if _, err := ParseProfile(unknown); err == nil {
		t.Error("ParseProfile accepted an unknown name")
	}
}

func TestDeterministicAcrossRunsViaFacade(t *testing.T) {
	run := func() Time {
		cluster := NewCluster(Config{
			Profile: SolarisSDR(), Transport: TransportRDMA,
			Design: DesignReadRead, RegMode: RegFMR, Seed: 7,
		})
		cluster.Start("io", func(p *Proc) {
			RunIOzone(p, cluster, IOzoneConfig{Threads: 3, FileSize: 1 << 20, RecordSize: 64 << 10})
		})
		return cluster.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic end times: %v vs %v", a, b)
	}
}
