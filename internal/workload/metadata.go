package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
)

// MetadataConfig parameterizes a metadata-heavy small-op mix (an
// SPECsfs-flavoured blend of LOOKUP/GETATTR/CREATE/REMOVE/READDIR plus
// small reads and writes). Bulk transfer barely matters here; what this
// stresses is the inline RPC path, per-op latency, and the client metadata
// caches.
type MetadataConfig struct {
	Threads  int
	Dirs     int // directories in the working tree
	Files    int // files per directory, pre-created
	Ops      int // operations per thread
	Client   int
	Seed     uint64
	UseCache bool // enable the client attribute/lookup cache
}

// smallIO is the size of the mix's occasional small read or write.
const smallIO = 8 << 10

// MetadataResult is the measured outcome.
type MetadataResult struct {
	OpsPerSec    float64
	Ops          int64
	AvgLatencyUS float64
	ClientCPUPct float64
	ServerCPUPct float64
}

// RunMetadata pre-builds the tree and runs the mix.
func RunMetadata(p *des.Proc, cluster *core.Cluster, cfg MetadataConfig) (MetadataResult, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Dirs <= 0 {
		cfg.Dirs = 8
	}
	if cfg.Files <= 0 {
		cfg.Files = 32
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	cl := cluster.Clients[cfg.Client]
	if cfg.UseCache && cl.AttrCacheStats() == nil {
		cl.EnableAttrCache(30 * 1e9)
	}
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for d := 0; d < cfg.Dirs; d++ {
		check(cl.Mkdir(p, fmt.Sprintf("md%02d", d)))
		for f := 0; f < cfg.Files; f++ {
			file, err := cl.Create(p, fmt.Sprintf("md%02d/f%03d", d, f))
			check(err)
			if err == nil {
				buf := cl.NewBuffer(smallIO)
				_, err = file.WriteAt(p, buf, 0, 0, smallIO, false)
				check(err)
			}
		}
	}
	if firstErr != nil {
		return MetadataResult{}, firstErr
	}

	cl.Node.CPU.ResetWindow()
	cluster.Server.Node.CPU.ResetWindow()
	start := p.Now()
	var ops int64
	parallel(p, "metadata", cfg.Threads, func(wp *des.Proc, i int) {
		rng := des.NewRand(cfg.Seed*31 + uint64(i) + 1)
		buf := cl.NewBuffer(smallIO)
		scratch := 0
		for n := 0; n < cfg.Ops; n++ {
			dir := fmt.Sprintf("md%02d", rng.Intn(cfg.Dirs))
			path := fmt.Sprintf("%s/f%03d", dir, rng.Intn(cfg.Files))
			switch rng.Intn(10) {
			case 0, 1, 2: // stat (GETATTR via LOOKUP path)
				_, err := cl.Stat(wp, path)
				check(err)
			case 3, 4, 5: // open + small read
				f, err := cl.Open(wp, path)
				check(err)
				if err == nil {
					_, _, err = f.ReadAt(wp, buf, 0, 0, smallIO, false)
					check(err)
				}
			case 6, 7: // small overwrite
				f, err := cl.Open(wp, path)
				check(err)
				if err == nil {
					_, err = f.WriteAt(wp, buf, 0, 0, smallIO, false)
					check(err)
				}
			case 8: // create + remove a scratch file
				scratch++
				name := fmt.Sprintf("%s/tmp%d_%d", dir, i, scratch)
				_, err := cl.Create(wp, name)
				check(err)
				check(cl.Remove(wp, name))
			default: // list the directory
				dirFH, _, err := cl.NFS.Lookup(wp, cl.Root, dir)
				check(err)
				if err == nil {
					_, err = cl.NFS.ReadDir(wp, dirFH, 0, 4096, false)
					check(err)
				}
			}
			ops++
		}
	})
	elapsed := p.Now() - start
	res := MetadataResult{
		Ops:          ops,
		OpsPerSec:    float64(ops) / elapsed.Seconds(),
		ClientCPUPct: cl.Node.CPU.Utilization() * 100,
		ServerCPUPct: cluster.Server.Node.CPU.Utilization() * 100,
	}
	if ops > 0 {
		res.AvgLatencyUS = elapsed.Micros() / float64(ops) * float64(cfg.Threads)
	}
	return res, firstErr
}
