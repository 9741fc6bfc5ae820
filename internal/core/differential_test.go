package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

// The cross-configuration differential oracle: one seeded operation sequence
// (creates, writes of random extents — holes included — and read-backs, by
// three clients) is replayed, with real payload bytes, on every transfer
// design × registration mode × server receive path, on the two NFS/TCP
// baselines and through the client data cache. Every read of every run is
// checked against a reference model, and every run's NFS-level result
// sequence and final server file-system digest are compared with the first
// run's and the model's: no configuration may disagree with another about
// what the file system holds or what a call returned.

// diffConfig is one configuration under the oracle.
type diffConfig struct {
	name string
	Config
	// dataCache drives the sequence through WriteAtCached/ReadAtCached (with
	// a Flush after every eighth write) instead of WriteAt/ReadAt.
	dataCache bool
}

// diffConfigs lists the 39 configurations: 3 designs × 4 registration modes ×
// 3 receive paths over RDMA, IPoIB, GigE, and the data-cache client. A
// per-connection RDMA run is named transport-design-mode; the other receive
// paths append their name.
func diffConfigs() []diffConfig {
	base := func(tr Transport, d rpcrdma.Design, m memreg.Mode) Config {
		return Config{Profile: profiles.LinuxSDR(), Transport: tr, Design: d, RegMode: m, Clients: 3, CopyData: true}
	}
	name := func(c Config) string { return fmt.Sprintf("%v-%v-%v", c.Transport, c.Design, c.RegMode) }
	var out []diffConfig
	for _, d := range []rpcrdma.Design{rpcrdma.ReadWrite, rpcrdma.ReadRead, rpcrdma.ReplyFetch} {
		for _, m := range []memreg.Mode{memreg.Regular, memreg.FMR, memreg.AllPhysical, memreg.Cache} {
			c := base(TransportRDMA, d, m)
			out = append(out, diffConfig{name: name(c), Config: c})
			c.ServerShards = 2
			out = append(out, diffConfig{name: name(c) + "-sharded", Config: c})
			c.Multiplex, c.Affinity = true, true
			out = append(out, diffConfig{name: name(c) + "-mux", Config: c})
		}
	}
	for _, tr := range []Transport{TransportIPoIB, TransportGigE} {
		c := base(tr, rpcrdma.ReadWrite, memreg.Regular)
		out = append(out, diffConfig{name: name(c), Config: c})
	}
	c := base(TransportRDMA, rpcrdma.ReadWrite, memreg.Cache)
	return append(out, diffConfig{name: name(c) + "-datacache", Config: c, dataCache: true})
}

// diffOp is one step of the sequence. File i belongs to client i%3 for its
// whole life, so the data cache's close-to-open consistency never sees a
// second writer and one sequence is valid for every configuration.
type diffOp struct {
	kind byte // 'c' create, 'w' write, 'r' read
	file int
	off  int
	flag bool   // write: stable; read: direct I/O
	data []byte // write: the payload; read: the bytes the model holds there
}

// diffSequence generates n operations from seed against the reference model
// and returns them with the model's final file contents.
func diffSequence(seed uint64, n int) ([]diffOp, [][]byte) {
	rng := des.NewRand(seed*77 + 5)
	var files [][]byte
	ops := make([]diffOp, 0, n)
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 2 || len(files) == 0:
			ops = append(ops, diffOp{kind: 'c', file: len(files)})
			files = append(files, nil)
		case k < 6:
			f, off := rng.Intn(len(files)), rng.Intn(256<<10)
			data := make([]byte, 1+rng.Intn(192<<10))
			for x, i := rng.Uint64()|1, 0; i < len(data); i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				data[i] = byte(x)
			}
			ops = append(ops, diffOp{kind: 'w', file: f, off: off, flag: rng.Intn(2) == 0, data: data})
			if end := off + len(data); end > len(files[f]) {
				files[f] = append(files[f], make([]byte, end-len(files[f]))...)
			}
			copy(files[f][off:], data)
		default:
			f := rng.Intn(len(files))
			if len(files[f]) == 0 {
				continue
			}
			off := rng.Intn(len(files[f]))
			end := off + 1 + rng.Intn(len(files[f])-off)
			ops = append(ops, diffOp{kind: 'r', file: f, off: off, flag: rng.Intn(2) == 0,
				data: bytes.Clone(files[f][off:end])})
		}
	}
	return ops, files
}

func diffFileName(i int) string { return fmt.Sprintf("f%04d", i) }

// diffDigest is the form file-system state is compared in: one line per
// file, by name, with its size and content hash.
func diffDigest(b *strings.Builder, name string, content []byte) {
	fmt.Fprintf(b, "%s %d %x\n", name, len(content), sha256.Sum256(content))
}

// runDifferential replays ops on one configuration. It returns the result
// sequence as the NFS client saw it (one line per operation) and the digest
// of the server's file system read straight from its store after the last
// operation; a read that disagrees with the model is reported on t.
func runDifferential(t *testing.T, dc diffConfig, ops []diffOp) (transcript []string, digest string) {
	cluster := NewCluster(dc.Config)
	cluster.Start("differential", func(p *des.Proc) {
		var handles []*File
		writes := 0
		for i, op := range ops {
			cl := cluster.Clients[op.file%len(cluster.Clients)]
			var line string
			switch op.kind {
			case 'c':
				if dc.dataCache && cl.DataCacheStats() == nil {
					cl.EnableDataCache(1 << 20) // small: force eviction traffic
				}
				f, err := cl.Create(p, diffFileName(op.file))
				if err != nil {
					t.Errorf("%s: op %d create: %v", dc.name, i, err)
					return
				}
				handles = append(handles, f)
				line = fmt.Sprintf("create %s: %v", diffFileName(op.file), err)
			case 'w':
				var n int
				var err error
				if dc.dataCache {
					n, err = handles[op.file].WriteAtCached(p, op.data, int64(op.off))
					if writes++; err == nil && writes%8 == 0 {
						err = handles[op.file].Flush(p)
					}
				} else {
					buf := cl.NewMaterializedBuffer(len(op.data))
					copy(buf.Bytes(), op.data)
					n, err = handles[op.file].WriteAt(p, buf, 0, int64(op.off), len(op.data), op.flag)
				}
				line = fmt.Sprintf("write %s off=%d len=%d: n=%d %v", diffFileName(op.file), op.off, len(op.data), n, err)
			case 'r':
				var n int
				var err error
				got := make([]byte, len(op.data))
				if dc.dataCache {
					n, _, err = handles[op.file].ReadAtCached(p, got, int64(op.off))
				} else {
					buf := cl.NewMaterializedBuffer(len(got))
					n, _, err = handles[op.file].ReadAt(p, buf, 0, int64(op.off), len(got), op.flag)
					copy(got, buf.Bytes())
				}
				if err == nil && !bytes.Equal(got[:n], op.data[:n]) {
					t.Errorf("%s: op %d read %s off=%d len=%d: bytes differ from the model", dc.name, i, diffFileName(op.file), op.off, len(got))
				}
				line = fmt.Sprintf("read %s off=%d len=%d: n=%d %x %v", diffFileName(op.file), op.off, len(got), n, sha256.Sum256(got[:n]), err)
			}
			transcript = append(transcript, line)
		}
		for _, f := range handles {
			if err := f.Flush(p); err != nil { // no-op without a data cache
				t.Errorf("%s: final flush: %v", dc.name, err)
			}
		}
		// The server's state, not a client's view of it: walk the export.
		fs := cluster.Server.FS
		entries, _, err := fs.ReadDir(p, fs.Root(), 0, 0)
		if err != nil {
			t.Errorf("%s: readdir: %v", dc.name, err)
		}
		var b strings.Builder
		for _, e := range entries {
			attr, err := fs.GetAttr(p, e.FileID)
			if err != nil {
				t.Errorf("%s: getattr %s: %v", dc.name, e.Name, err)
			}
			content := make([]byte, attr.Size)
			if n, _, err := fs.Read(p, e.FileID, 0, len(content), content); err != nil || n != len(content) {
				t.Errorf("%s: server read %s: n=%d of %d, %v", dc.name, e.Name, n, len(content), err)
			}
			diffDigest(&b, e.Name, content)
		}
		digest = b.String()
	})
	cluster.Run()
	return transcript, digest
}

// TestDifferentialAllConfigurations is the oracle. It fails when any
// configuration returns bytes the model does not hold, leaves the server's
// file system in a state the model does not predict, or answers any call
// differently from another configuration; runs are then listed by outcome,
// each minority against the most common one.
func TestDifferentialAllConfigurations(t *testing.T) {
	ops, files := diffSequence(1, 400)
	var model strings.Builder
	for i, content := range files {
		diffDigest(&model, diffFileName(i), content)
	}
	configs := diffConfigs()
	if len(configs) != 39 {
		t.Fatalf("%d configurations, want 39", len(configs))
	}
	type outcome struct {
		names      []string
		transcript []string
	}
	outcomes := map[string]*outcome{} // by transcript and digest
	var majority *outcome
	for _, dc := range configs {
		transcript, digest := runDifferential(t, dc, ops)
		if len(transcript) != len(ops) {
			t.Errorf("%s: ran %d of %d operations", dc.name, len(transcript), len(ops))
		}
		if digest != model.String() {
			t.Errorf("%s: final file system differs from the model:\n--- got\n%s--- want\n%s", dc.name, digest, model.String())
		}
		transcript = append(transcript, "final state:\n"+digest)
		key := strings.Join(transcript, "\n")
		o := outcomes[key]
		if o == nil {
			o = &outcome{transcript: transcript}
			outcomes[key] = o
		}
		o.names = append(o.names, dc.name)
		if majority == nil || len(o.names) > len(majority.names) {
			majority = o
		}
	}
	for _, o := range outcomes {
		if o == majority {
			continue
		}
		for i, line := range o.transcript {
			if i >= len(majority.transcript) || line != majority.transcript[i] {
				t.Errorf("%v disagree with the %d configurations of the majority from op %d:\n got %s\nwant %s",
					o.names, len(majority.names), i, line, majority.transcript[min(i, len(majority.transcript)-1)])
				break
			}
		}
	}
}
