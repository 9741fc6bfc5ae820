// Package nfsrdma is a from-scratch reproduction of "Designing NFS with
// RDMA for Security, Performance and Scalability" (Noronha, Chai, Talpey,
// Panda — ICPP 2007) as a Go library.
//
// Because Go has no mature RDMA verbs bindings and InfiniBand hardware is
// required by the original artifact, the repository substitutes a
// deterministic, discrete-event-simulated InfiniBand fabric
// (internal/ibsim) and runs the complete, real protocol stack on top of it:
//
//   - XDR and ONC RPC (internal/xdr, internal/oncrpc)
//   - the RPC/RDMA transport with the paper's header, chunk lists, inline
//     protocol, RPC long calls and long replies, in both the original
//     Read-Read design and the paper's proposed Read-Write design
//     (internal/rpcrdma)
//   - every §4.3 memory-registration strategy: dynamic registration,
//     Mellanox-style FMR, the all-physical global steering tag, and the
//     slab-backed buffer registration cache (internal/memreg)
//   - a full NFSv3 client and server (internal/nfs3) over a VFS with tmpfs
//     and page-cached RAID-0 back ends (internal/vfs)
//   - the NFS/TCP baselines over IPoIB and Gigabit Ethernet
//     (internal/tcpsim)
//
// This package is the public facade: it re-exports the cluster builder,
// client file API, workload generators and experiment harness so a
// downstream user never has to import the internal packages directly.
//
// # Quick start
//
//	cluster := nfsrdma.NewCluster(nfsrdma.Config{
//	    Profile:   nfsrdma.SolarisSDR(),
//	    Transport: nfsrdma.TransportRDMA,
//	    Design:    nfsrdma.DesignReadWrite,
//	    RegMode:   nfsrdma.RegCache,
//	    CopyData:  true,
//	})
//	client := cluster.Clients[0]
//	cluster.Start("app", func(p *nfsrdma.Proc) {
//	    f, _ := client.Create(p, "hello.txt")
//	    buf := client.NewMaterializedBuffer(64)
//	    copy(buf.Bytes(), "hello over simulated RDMA")
//	    f.WriteAt(p, buf, 0, 0, 25, true)
//	})
//	cluster.Run()
//
// All time is virtual: bandwidth figures are MB (10^6 bytes) per simulated
// second, CPU utilization comes from the simulated hosts' core models, and
// runs are bit-for-bit reproducible.
//
// The experiment harness (RunFigure5and6 … RunFigure10) regenerates every
// table and figure of the paper's evaluation; see EXPERIMENTS.md for the
// paper-vs-measured comparison and internal/experiments for the tests that
// gate the paper's orderings.
package nfsrdma
