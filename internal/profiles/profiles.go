// Package profiles holds the named cost-model calibrations that stand in
// for the paper's testbeds. Absolute constants are calibrated so that the
// simulated curves reproduce the published *shapes* (who wins, rough
// factors, crossovers) — see EXPERIMENTS.md for the paper-vs-measured
// comparison. Every constant is documented with the mechanism it models.
package profiles

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/rpcrdma"
	"repro/internal/tcpsim"
	"repro/internal/vfs"
)

// Profile is one complete testbed calibration.
type Profile struct {
	Name string

	// Client and Server are node templates (Name and Seed are filled in by
	// the cluster builder).
	Client ibsim.NodeConfig
	Server ibsim.NodeConfig

	// RDMAClient / RDMAServer configure the RPC/RDMA endpoints.
	RDMAClient rpcrdma.Config
	RDMAServer rpcrdma.Config

	// TCP configures the stream-baseline endpoints.
	TCP tcpsim.Config

	// NFSPerOpCPU is the NFS+VFS processing cost per procedure at the
	// server.
	NFSPerOpCPU des.Duration

	// Disk is the back-end array (multi-client experiments).
	Disk vfs.DiskArrayConfig

	// PageCacheBytes is the default server page-cache capacity for the
	// disk back end (overridable per experiment: the paper uses 4 GB and
	// 8 GB server configurations, minus OS overhead).
	PageCacheBytes int64
}

// Parse returns the testbed profile whose Name is name.
func Parse(name string) (Profile, error) {
	for _, profile := range []func() Profile{SolarisSDR, LinuxSDR, LinuxDDR} {
		if p := profile(); p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("profiles: unknown profile %q", name)
}

// SolarisSDR models the paper's §5.1/§5.2 testbed: dual-core Opteron x2100
// hosts, x8 PCI-Express SDR InfiniBand (~900 MB/s practical), OpenSolaris
// NFS/RDMA stack.
//
// Key calibrated mechanisms:
//   - RegPerPageBus ≈ 6 µs: each TPT entry install is an I/O-bus
//     transaction on the HCA's serial TPT engine. This bounds dynamic
//     registration throughput at ~PageSize/6.4µs ≈ 580 MB/s of *registered*
//     bytes regardless of record size — combined with the taskq costs below
//     it produces the flat ~350-400 MB/s saturation of Figs. 5-7.
//   - FMRMapPerPageBus ≈ 4.5 µs: FMR skips tag allocation but still writes
//     entries; modestly faster, as measured (Fig. 7: 350 → 400 MB/s).
//   - SerialBase/SerialPerByteNs: the single RPC/RDMA send taskq of the
//     OpenSolaris stack (Figure 1); its per-byte component caps the
//     registration-cache configuration at ~700-750 MB/s (Fig. 7).
//   - SerializeSyncRead: the Solaris server blocks its taskq on the
//     synchronous RDMA Read of write chunks, depressing WRITE throughput
//     relative to READ (Figs. 6, 7b).
func SolarisSDR() Profile {
	node := ibsim.NodeConfig{
		Cores:                2, // one dual-core Opteron
		PortBandwidth:        900e6,
		PortLatency:          4 * time.Microsecond,
		MaxORD:               8,
		WQEOverhead:          500 * time.Nanosecond,
		ReadResponseOverhead: 12 * time.Microsecond,

		RegPerPageCPU:    800 * time.Nanosecond,
		RegBase:          25 * time.Microsecond,
		RegPerPageBus:    5 * time.Microsecond,
		DeregPerPageCPU:  300 * time.Nanosecond,
		DeregBase:        10 * time.Microsecond,
		DeregPerPageBus:  400 * time.Nanosecond,
		FMRMapCPU:        500 * time.Nanosecond,
		FMRMapPerPageBus: 4500 * time.Nanosecond,

		// Opteron-era memory system: ~0.8 GB/s effective touch-copy rate.
		CopyNsPerByte: 1.2,
		InterruptCost: 6 * time.Microsecond,
		SyscallCost:   1500 * time.Nanosecond,
		MeanPhysRun:   32 << 10,
	}
	client, server := node, node
	return Profile{
		Name:   "solaris-sdr",
		Client: client,
		Server: server,
		RDMAClient: rpcrdma.Config{
			PerOpCPU:   12 * time.Microsecond,
			SerialBase: 25 * time.Microsecond,
		},
		RDMAServer: rpcrdma.Config{
			PerOpCPU:          15 * time.Microsecond,
			Workers:           16,
			SerialBase:        25 * time.Microsecond,
			SerialPerByteNs:   0.75,
			SerializeSyncRead: true,
		},
		TCP:         ipoibTCP(),
		NFSPerOpCPU: 18 * time.Microsecond,
		Disk:        vfs.DiskArrayConfig{},
	}
}

// LinuxSDR models the Linux NFS/RDMA port on the same SDR hardware
// (§5.2 / Fig. 9): faster host stack (3.6 GHz Xeons in the paper's later
// runs; independent svc threads, no global taskq), so the stack ceiling is
// close to the 900 MB/s wire and the registration mode dominates.
func LinuxSDR() Profile {
	node := ibsim.NodeConfig{
		Cores:                4, // dual 3.6 GHz Xeon with HT
		PortBandwidth:        900e6,
		PortLatency:          3 * time.Microsecond,
		MaxORD:               8,
		WQEOverhead:          400 * time.Nanosecond,
		ReadResponseOverhead: 12 * time.Microsecond,

		RegPerPageCPU:    500 * time.Nanosecond,
		RegBase:          15 * time.Microsecond,
		RegPerPageBus:    5 * time.Microsecond,
		DeregPerPageCPU:  200 * time.Nanosecond,
		DeregBase:        8 * time.Microsecond,
		DeregPerPageBus:  300 * time.Nanosecond,
		FMRMapCPU:        400 * time.Nanosecond,
		FMRMapPerPageBus: 4500 * time.Nanosecond,

		CopyNsPerByte: 0.7,
		InterruptCost: 4 * time.Microsecond,
		SyscallCost:   1 * time.Microsecond,
		MeanPhysRun:   32 << 10,
	}
	return Profile{
		Name:   "linux-sdr",
		Client: node,
		Server: node,
		RDMAClient: rpcrdma.Config{
			PerOpCPU: 8 * time.Microsecond,
		},
		RDMAServer: rpcrdma.Config{
			PerOpCPU:        10 * time.Microsecond,
			Workers:         16,
			SerialBase:      8 * time.Microsecond,
			SerialPerByteNs: 0.05,
		},
		TCP:         ipoibTCP(),
		NFSPerOpCPU: 12 * time.Microsecond,
		Disk:        vfs.DiskArrayConfig{},
	}
}

// LinuxDDR models the §5.3 multi-client testbed: dual 3.6 GHz Xeon hosts
// with DDR HCAs (~1500 MB/s practical per port), eight 30 MB/s SCSI disks
// in RAID-0 under XFS, server page cache of 4 or 8 GB.
func LinuxDDR() Profile {
	p := LinuxSDR()
	p.Name = "linux-ddr"
	p.Client.PortBandwidth = 1500e6
	p.Server.PortBandwidth = 1500e6
	// Fig. 10 runs the all-physical mode; the NFS/RDMA stack tops out a bit
	// above 900 MB/s on these hosts (the paper's sustained number), which
	// the per-byte stack cost reproduces.
	p.RDMAServer.SerialPerByteNs = 1.13
	p.RDMAServer.SerialBase = 10 * time.Microsecond
	p.Disk = vfs.DiskArrayConfig{
		Disks:         8,
		StripeSize:    64 << 10,
		DiskBandwidth: 30e6,
		SeekTime:      4 * time.Millisecond,
	}
	p.PageCacheBytes = 3 << 30 // 4 GB server minus kernel/daemons
	return p
}

// ipoibTCP is the NFS/TCP-over-IPoIB cost set: the wire is the InfiniBand
// port, but every byte crosses both host stacks (two copies + checksum per
// side), which is what pins the aggregate near 330-360 MB/s (§5.3).
func ipoibTCP() tcpsim.Config {
	return tcpsim.Config{
		MSS:              16 << 10, // IPoIB connected-mode large MTU
		FrameOverhead:    58,
		PerSegmentCPU:    3 * time.Microsecond,
		CopiesPerByte:    2,
		SoftirqNsPerByte: 2.6,
		PerOpCPU:         20 * time.Microsecond,
		Workers:          16,
	}
}

// GigETCP is the Gigabit Ethernet baseline: 125 MB/s theoretical, ~107
// effective after frame overhead, with an incast penalty that degrades
// aggregate throughput as client count grows (Fig. 10a).
func GigETCP() tcpsim.Config {
	return tcpsim.Config{
		MSS:              1448,
		FrameOverhead:    78,
		PerSegmentCPU:    500 * time.Nanosecond,
		CopiesPerByte:    1,
		SoftirqNsPerByte: 0.2,
		IncastPenalty:    0.06,
		PerOpCPU:         20 * time.Microsecond,
		Workers:          16,
	}
}

// GigEPortBandwidth is the node port speed for the GigE baseline.
const GigEPortBandwidth = 125e6

// GigEPortLatency is the one-way latency for the GigE baseline.
const GigEPortLatency = 40 * time.Microsecond
