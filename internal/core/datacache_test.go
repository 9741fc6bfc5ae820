package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/xdr"
)

func dataCacheCluster(clients int) *Cluster {
	return NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Cache,
		Clients: clients, CopyData: true,
	})
}

func TestDataCacheReadHitAvoidsRPC(t *testing.T) {
	cluster := dataCacheCluster(1)
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		cl.EnableDataCache(8 << 20)
		f, _ := cl.Create(p, "f")
		payload := make([]byte, 200<<10)
		for i := range payload {
			payload[i] = byte(i * 11)
		}
		wbuf := cl.NewMaterializedBuffer(len(payload))
		copy(wbuf.Bytes(), payload)
		f.WriteAt(p, wbuf, 0, 0, len(payload), true)

		dst := make([]byte, len(payload))
		n, eof, err := f.ReadAtCached(p, dst, 0)
		if err != nil || n != len(payload) || !eof {
			t.Errorf("first read: n=%d eof=%v err=%v", n, eof, err)
			return
		}
		if !bytes.Equal(dst, payload) {
			t.Error("first cached read corrupted")
			return
		}
		readsBefore := cluster.Server.NFS.Ops[nfs3.ProcRead]
		for i := 0; i < 10; i++ {
			n, _, err := f.ReadAtCached(p, dst, 0)
			if err != nil || n != len(payload) {
				t.Errorf("re-read %d: n=%d err=%v", i, n, err)
				return
			}
		}
		if got := cluster.Server.NFS.Ops[nfs3.ProcRead] - readsBefore; got != 0 {
			t.Errorf("%d READ RPCs for fully cached re-reads", got)
		}
		if !bytes.Equal(dst, payload) {
			t.Error("cached re-read corrupted")
		}
	})
	cluster.Run()
}

func TestDataCacheWriteBackAndFlush(t *testing.T) {
	cluster := dataCacheCluster(1)
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		cl.EnableDataCache(8 << 20)
		f, _ := cl.Create(p, "wb")
		payload := make([]byte, 150<<10) // crosses page boundaries, partial tail
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		writesBefore := cluster.Server.NFS.Ops[nfs3.ProcWrite]
		if _, err := f.WriteAtCached(p, payload, 0); err != nil {
			t.Errorf("cached write: %v", err)
			return
		}
		if got := cluster.Server.NFS.Ops[nfs3.ProcWrite] - writesBefore; got != 0 {
			t.Errorf("%d WRITE RPCs before flush (write-back expected)", got)
		}
		if err := f.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		if got := cluster.Server.NFS.Ops[nfs3.ProcWrite] - writesBefore; got == 0 {
			t.Error("flush pushed nothing")
		}
		// Server now has the bytes: read them back uncached.
		rbuf := cl.NewMaterializedBuffer(len(payload))
		n, _, err := f.ReadAt(p, rbuf, 0, 0, len(payload), false)
		if err != nil || n != len(payload) {
			t.Errorf("verify read: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(rbuf.Bytes(), payload) {
			t.Error("flushed data corrupted at server")
		}
	})
	cluster.Run()
}

// TestDataCacheCloseToOpenConsistency: client B's write must become visible
// to client A after A's validator expires (mtime changed → pages dropped).
func TestDataCacheCloseToOpenConsistency(t *testing.T) {
	cluster := dataCacheCluster(2)
	a, b := cluster.Clients[0], cluster.Clients[1]
	cluster.Start("t", func(p *des.Proc) {
		a.EnableAttrCache(time.Millisecond) // short actimeo
		a.EnableDataCache(8 << 20)
		fa, _ := a.Create(p, "shared")
		one := bytes.Repeat([]byte{1}, 64<<10)
		wbuf := a.NewMaterializedBuffer(len(one))
		copy(wbuf.Bytes(), one)
		fa.WriteAt(p, wbuf, 0, 0, len(one), true)

		dst := make([]byte, len(one))
		fa.ReadAtCached(p, dst, 0) // warm A's cache
		if dst[0] != 1 {
			t.Error("warm read wrong")
			return
		}

		// B overwrites via the server.
		p.Sleep(2 * time.Millisecond)
		fb, err := b.Open(p, "shared")
		if err != nil {
			t.Errorf("open from B: %v", err)
			return
		}
		two := bytes.Repeat([]byte{2}, 64<<10)
		wb := b.NewMaterializedBuffer(len(two))
		copy(wb.Bytes(), two)
		fb.WriteAt(p, wb, 0, 0, len(two), true)

		// A's attr entry has expired; the next cached read revalidates,
		// sees the new mtime, drops its pages and refetches.
		p.Sleep(2 * time.Millisecond)
		n, _, err := fa.ReadAtCached(p, dst, 0)
		if err != nil || n != len(one) {
			t.Errorf("post-update read: n=%d err=%v", n, err)
			return
		}
		if dst[0] != 2 {
			t.Errorf("stale data served after validator change: %d", dst[0])
		}
		if a.DataCacheStats().Invalidations == 0 {
			t.Error("no invalidation recorded")
		}
	})
	cluster.Run()
}

// writeRecorder is a client transport that records the offset of every NFS
// WRITE sent through it.
type writeRecorder struct {
	oncrpc.Transport
	offsets []uint64
}

func (r *writeRecorder) Roundtrip(p *des.Proc, req *oncrpc.Request) (*oncrpc.Response, error) {
	if h, args, err := oncrpc.DecodeCall(req.Header); err == nil && h.Proc == nfs3.ProcWrite {
		var a nfs3.WriteArgs
		c := xdr.DecodeFrom(args)
		if a.XDR(&c); c.Err() == nil {
			r.offsets = append(r.offsets, a.Offset)
		}
	}
	return r.Transport.Roundtrip(p, req)
}

// TestDataCacheFlushIsDeterministic: same-seed runs that flush a file with
// many dirty pages send the server the same WRITEs in the same order — page
// order, not the order a map happens to range in.
func TestDataCacheFlushIsDeterministic(t *testing.T) {
	const pages = 20
	run := func() []uint64 {
		cluster := dataCacheCluster(1)
		cl := cluster.Clients[0]
		rec := &writeRecorder{}
		cluster.Start("t", func(p *des.Proc) {
			rec.Transport = cl.Transport
			cl.NFS.SetTransport(rec)
			cl.EnableDataCache(8 << 20)
			f, err := cl.Create(p, "flush")
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := f.WriteAtCached(p, make([]byte, pages*dataCachePageSize), 0); err != nil {
				t.Errorf("cached write: %v", err)
				return
			}
			if err := f.Flush(p); err != nil {
				t.Errorf("flush: %v", err)
			}
		})
		cluster.Run()
		return rec.offsets
	}
	want := make([]uint64, pages)
	for i := range want {
		want[i] = uint64(i * dataCachePageSize)
	}
	for i := 0; i < 3; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d wrote back at offsets %v, want page order %v", i, got, want)
		}
	}
}

func TestDataCacheBounded(t *testing.T) {
	cluster := dataCacheCluster(1)
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		dc := cl.EnableDataCache(256 << 10) // 4 pages
		f, _ := cl.Create(p, "big")
		payload := make([]byte, 2<<20)
		wbuf := cl.NewMaterializedBuffer(len(payload))
		f.WriteAt(p, wbuf, 0, 0, len(payload), true)
		dst := make([]byte, 64<<10)
		for off := int64(0); off < 2<<20; off += 64 << 10 {
			if _, _, err := f.ReadAtCached(p, dst, off); err != nil {
				t.Errorf("read at %d: %v", off, err)
				return
			}
			if dc.CachedBytes() > 256<<10 {
				t.Fatalf("cache grew to %d bytes past its bound", dc.CachedBytes())
			}
		}
	})
	cluster.Run()
}

func TestDataCacheDirtyEvictionWritesBack(t *testing.T) {
	cluster := dataCacheCluster(1)
	cl := cluster.Clients[0]
	cluster.Start("t", func(p *des.Proc) {
		dc := cl.EnableDataCache(128 << 10) // 2 pages
		f, _ := cl.Create(p, "dirty")
		// Dirty 6 pages: 4 must be written back by eviction pressure.
		payload := make([]byte, 384<<10)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		if _, err := f.WriteAtCached(p, payload, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if dc.WritebackPages == 0 {
			t.Error("eviction should have written dirty pages back")
		}
		if err := f.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		rbuf := cl.NewMaterializedBuffer(len(payload))
		n, _, _ := f.ReadAt(p, rbuf, 0, 0, len(payload), false)
		if n != len(payload) || !bytes.Equal(rbuf.Bytes(), payload) {
			t.Error("data lost through dirty eviction")
		}
	})
	cluster.Run()
}
