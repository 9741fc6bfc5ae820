package nfsrdma

import (
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Core simulation types.
type (
	// Proc is the handle a simulated process uses to sleep, wait and issue
	// I/O; every blocking API takes one.
	Proc = des.Proc
	// Sim is a discrete-event simulation instance.
	Sim = des.Sim
	// Time is virtual time in nanoseconds.
	Time = des.Time
	// Duration is a span of virtual time (alias of time.Duration).
	Duration = des.Duration
)

// Cluster construction and the client file API.
type (
	// Config describes one cluster/experiment instance.
	Config = core.Config
	// Cluster is a fully wired server + clients instance.
	Cluster = core.Cluster
	// Client is one NFS client host with a mounted export.
	Client = core.Client
	// File is an open file on a mount.
	File = core.File
	// Buffer is client application memory usable for zero-copy I/O.
	Buffer = core.Buffer
	// Server is the simulated NFS server host.
	Server = core.Server
	// Transport selects RDMA, IPoIB or GigE.
	Transport = core.Transport
	// Backend selects the server's file store.
	Backend = core.Backend
	// Profile is one testbed cost calibration.
	Profile = profiles.Profile
	// Metrics is a point-in-time cluster snapshot.
	Metrics = core.Metrics
	// AttrCache is the client-side attribute/lookup cache
	// (Client.EnableAttrCache).
	AttrCache = core.AttrCache
	// DataCache is the client-side file data cache with close-to-open
	// consistency (Client.EnableDataCache).
	DataCache = core.DataCache
	// StreamConfig tunes File.ReadSequential / WriteSequential pipelining.
	StreamConfig = core.StreamConfig
	// Histogram is the log-scale latency histogram used by
	// Client.NFS.EnableLatencyStats.
	Histogram = stats.Histogram
	// Design selects the transfer protocol (Read-Write, Read-Read, or
	// Reply-Fetch).
	Design = rpcrdma.Design
	// RegMode selects a §4.3 memory-registration strategy.
	RegMode = memreg.Mode
)

// Transports.
const (
	TransportRDMA  = core.TransportRDMA
	TransportIPoIB = core.TransportIPoIB
	TransportGigE  = core.TransportGigE
)

// Back ends.
const (
	BackendTmpfs = core.BackendTmpfs
	BackendDisk  = core.BackendDisk
)

// Bulk-transfer designs.
const (
	// DesignReadWrite is the paper's proposed design: the server pushes
	// READ data and long replies with RDMA Write; server memory is never
	// exposed.
	DesignReadWrite = rpcrdma.ReadWrite
	// DesignReadRead is the original design: the server advertises its
	// buffers as read chunks and depends on the client's RDMA_DONE.
	DesignReadRead = rpcrdma.ReadRead
	// DesignReplyFetch inverts the reply path: the client pre-registers a
	// remotely writable reply slot per call and the server deposits the
	// whole reply with RDMA Writes (doorbell last) instead of a Send —
	// exposure moves to the client, the server's send path disappears.
	DesignReplyFetch = rpcrdma.ReplyFetch
)

// Registration strategies (§4.3).
const (
	RegDynamic     = memreg.Regular
	RegFMR         = memreg.FMR
	RegAllPhysical = memreg.AllPhysical
	RegCache       = memreg.Cache
)

// NewCluster builds a simulated NFS deployment per cfg.
func NewCluster(cfg Config) *Cluster { return core.NewCluster(cfg) }

// Parsers: the inverses of Transport.String, Design.String, RegMode.String
// and Profile.Name, for front ends that take a configuration as text.
var (
	ParseTransport = core.ParseTransport
	ParseDesign    = rpcrdma.ParseDesign
	ParseRegMode   = memreg.ParseMode
	ParseProfile   = profiles.Parse
)

// Testbed profiles.
var (
	// SolarisSDR is the OpenSolaris SDR testbed of §5.1/§5.2.
	SolarisSDR = profiles.SolarisSDR
	// LinuxSDR is the Linux port on the same SDR hardware (§5.2/Fig. 9).
	LinuxSDR = profiles.LinuxSDR
	// LinuxDDR is the DDR multi-client testbed with the RAID-0 back end
	// (§5.3/Fig. 10).
	LinuxDDR = profiles.LinuxDDR
)

// Workload generators.
type (
	// IOzoneConfig parameterizes the IOzone-style generator.
	IOzoneConfig = workload.IOzoneConfig
	// IOzoneResult carries the measured write and read phases.
	IOzoneResult = workload.IOzoneResult
	// OLTPConfig parameterizes the FileBench-style OLTP mix.
	OLTPConfig = workload.OLTPConfig
	// OLTPResult is the measured OLTP outcome.
	OLTPResult = workload.OLTPResult
	// MultiClientConfig parameterizes the §5.3 scale-out read test.
	MultiClientConfig = workload.MultiClientConfig
	// MultiClientResult is the aggregate outcome.
	MultiClientResult = workload.MultiClientResult
	// MetadataConfig parameterizes the metadata-heavy small-op mix.
	MetadataConfig = workload.MetadataConfig
	// MetadataResult is its measured outcome.
	MetadataResult = workload.MetadataResult
)

// Workload entry points (run inside a cluster process; see Cluster.Start).
var (
	RunIOzone      = workload.RunIOzone
	RunOLTP        = workload.RunOLTP
	RunMultiClient = workload.RunMultiClient
	RunMetadata    = workload.RunMetadata
)

// Experiment harness: one entry point per table/figure of the paper.
type (
	// ExperimentScale divides workload sizes for faster runs (1 = paper
	// sizes).
	ExperimentScale = experiments.Scale
)

// Experiment entry points.
var (
	RunFigure5and6 = experiments.RunFigure5and6
	RunFigure7     = experiments.RunFigure7
	RunFigure8     = experiments.RunFigure8
	RunFigure9     = experiments.RunFigure9
	RunFigure10    = experiments.RunFigure10
	Table1         = experiments.Table1
)

// Ablation entry points for the design parameters the paper identifies but
// does not sweep.
var (
	AblationORD                = experiments.AblationORD
	AblationPhysicalContiguity = experiments.AblationPhysicalContiguity
	AblationInlineThreshold    = experiments.AblationInlineThreshold
	AblationInterruptCost      = experiments.AblationInterruptCost
	AblationCacheBound         = experiments.AblationCacheBound
	AblationClientCache        = experiments.AblationClientCache
)
