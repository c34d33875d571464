// Package lightvm is a complete, simulation-backed reproduction of
// "My VM is Lighter (and Safer) than your Container" (Manco et al.,
// SOSP 2017): the Xen control plane and its LightVM redesign (noxs,
// chaos, split toolstack, xendevd), the Tinyx build system, the
// unikernel guest fleet, container/process baselines, and a harness
// that regenerates every figure of the paper's evaluation.
//
// The control plane runs for real — a transactional XenStore with
// watches, the split-driver handshake, domain shells pooled by the
// chaos daemon, page-granular memory accounting — while time is
// virtual: a deterministic clock charged by the calibrated cost model
// in internal/costs. See DESIGN.md for the substitution rationale.
//
// Quick start:
//
//	host, _ := lightvm.NewHost(lightvm.Xeon4, 1)
//	host.EnsureFlavor(lightvm.Daytime(), lightvm.ModeLightVM)
//	vm, _ := host.CreateVM(lightvm.ModeLightVM, "web1", lightvm.Daytime())
//	fmt.Println(vm.CreateTime + vm.BootTime) // ≈ 4ms of virtual time
package lightvm

import (
	"fmt"

	"lightvm/internal/apps"
	"lightvm/internal/cluster"
	"lightvm/internal/core"
	"lightvm/internal/experiments"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/migrate"
	"lightvm/internal/minipy"
	"lightvm/internal/netstack"
	"lightvm/internal/profiling"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/tinyx"
	"lightvm/internal/tlsterm"
	"lightvm/internal/toolstack"
	"lightvm/internal/trace"
	"lightvm/internal/traffic"
)

// Core types, re-exported for library users.
type (
	// Host is one simulated machine with its hypervisor, toolstacks,
	// software switch, container engine and process runner.
	Host = core.Host
	// Machine describes a testbed host (cores, Dom0 cores, memory).
	Machine = sched.Machine
	// Mode selects a toolstack configuration (Fig. 9 legend).
	Mode = toolstack.Mode
	// VM is a toolstack-managed guest.
	VM = toolstack.VM
	// Image is a bootable guest image.
	Image = guest.Image
	// Checkpoint is a saved guest (save/restore/migrate).
	Checkpoint = migrate.Checkpoint
	// Clock is the virtual time source shared by co-hosted machines.
	Clock = sim.Clock
	// TinyxResult is a finished Tinyx image build.
	TinyxResult = tinyx.BuildResult
	// TraceLog records control-plane operations (Host.EnableTrace).
	TraceLog = trace.Log
	// VMConfig is a parsed guest configuration file (xl or chaos
	// format).
	VMConfig = toolstack.VMConfig
	// Cluster is a fleet of hosts under one controller (§7.1's
	// mobile-edge deployment), each host its own logical process:
	// least-loaded placement, handover migrations, heartbeat-detected
	// failover, and an optional fault plane. RunChurn drives it.
	Cluster = cluster.Sharded
	// ClusterConfig sizes a Cluster (hardware, engine workers, seed,
	// detection timeout, fault plan).
	ClusterConfig = cluster.ShardedConfig
	// HostPool is one homogeneous slice of a Cluster's hosts.
	HostPool = cluster.HostPool
	// ChurnSpec is the workload program Cluster.RunChurn executes.
	ChurnSpec = cluster.ChurnSpec
	// ChurnReport is Cluster.RunChurn's deterministic result.
	ChurnReport = cluster.ChurnReport
)

// NewCluster builds a fleet of host pools under one controller.
func NewCluster(cfg ClusterConfig, pools []HostPool) (*Cluster, error) {
	return cluster.NewSharded(cfg, pools)
}

// UnmarshalCheckpoint parses a checkpoint serialized with
// Checkpoint.Marshal (ship checkpoints between processes or hosts).
var UnmarshalCheckpoint = migrate.UnmarshalCheckpoint

// ParseVMConfig parses a guest configuration file, auto-detecting the
// xl ('key = value') or chaos ('key value') format. Resolve the result
// to a bootable image with VMConfig.ResolveImage.
var ParseVMConfig = toolstack.ParseConfig

// Toolstack configurations.
const (
	// ModeXL is out-of-the-box Xen (xl/libxl + XenStore + hotplug
	// scripts).
	ModeXL = toolstack.ModeXL
	// ModeChaosXS is the lean chaos toolstack over the XenStore.
	ModeChaosXS = toolstack.ModeChaosXS
	// ModeChaosSplit adds the split toolstack's pre-created shells.
	ModeChaosSplit = toolstack.ModeChaosSplit
	// ModeChaosNoXS replaces the XenStore with noxs.
	ModeChaosNoXS = toolstack.ModeChaosNoXS
	// ModeLightVM is the full system: chaos + noxs + split toolstack.
	ModeLightVM = toolstack.ModeLightVM
)

// The paper's testbed machines.
var (
	// Xeon4 is the 4-core Intel Xeon E5-1630 v3 (Figs. 4, 5, 9, 14, 15).
	Xeon4 = sched.Xeon4
	// Xeon4Ckpt is the same box with 2 Dom0 cores (Figs. 12, 13).
	Xeon4Ckpt = sched.Xeon4Ckpt
	// Amd64 is the 64-core AMD Opteron host (Fig. 10, 8000 guests).
	Amd64 = sched.Amd64
	// Xeon14 is the 14-core Xeon E5-2690 v4 (§7 use cases).
	Xeon14 = sched.Xeon14
)

// NewHost builds a simulated machine; seed pins all randomized
// behaviour so runs are reproducible.
func NewHost(m Machine, seed uint64) (*Host, error) { return core.NewHost(m, seed) }

// NewClock creates a shared virtual clock for multi-host setups.
func NewClock() *Clock { return sim.NewClock() }

// NewHostOn builds a machine on an existing clock (needed for
// migration between hosts).
func NewHostOn(clock *Clock, m Machine, seed uint64) (*Host, error) {
	return core.NewHostOn(clock, m, seed)
}

// Guest image catalog (§3, §6, §7 of the paper).
var (
	// Noop is the 2.3 ms-floor unikernel with no devices.
	Noop = guest.Noop
	// Daytime is the 480 KB / 3.6 MB time-of-day unikernel.
	Daytime = guest.Daytime
	// Minipython is the MicroPython unikernel (compute service).
	Minipython = guest.Minipython
	// ClickOSFirewall is the §7.1 personal-firewall VM.
	ClickOSFirewall = guest.ClickOSFirewall
	// TLSUnikernel is the axtls/lwip termination proxy.
	TLSUnikernel = guest.TLSUnikernel
	// TinyxNoop is the 9.5 MB Tinyx Linux VM.
	TinyxNoop = guest.TinyxNoop
	// TinyxMicropython is Tinyx with the interpreter installed.
	TinyxMicropython = guest.TinyxMicropython
	// TinyxTLS is the Tinyx TLS terminator.
	TinyxTLS = guest.TinyxTLS
	// DebianMinimal is the 1.1 GB reference VM.
	DebianMinimal = guest.DebianMinimal
	// ImageByName resolves a catalog image by name.
	ImageByName = guest.ByName
)

// Experiments lists the figure/table generators available to
// RunExperiment (fig01..fig18, tbl-guests).
func Experiments() []string { return experiments.IDs() }

// ExperimentResult is one regenerated figure.
type ExperimentResult struct {
	// ID is the paper figure identifier (e.g. "fig09").
	ID string
	// Paper summarizes what the paper reports for this figure.
	Paper string
	// Output is the rendered data table.
	Output string
	// Plot is an ASCII rendering of the same data (log-y), for
	// terminal consumption.
	Plot string
	// WallMS is the real time the generator took, in milliseconds
	// (set by RunExperiments).
	WallMS float64
	// VirtualMS is the figure's simulated makespan in milliseconds
	// (0 = not instrumented by the generator).
	VirtualMS float64
	// Allocs is the generator's heap-allocation count, recorded on
	// sequential runs (parallel == 1) only; parallel runs leave it 0.
	Allocs uint64
	// Profile is the per-figure pprof attribution report; nil unless
	// the run requested profiling (see ExperimentOptions).
	Profile *ExperimentProfile
	// CrashSites tallies, per labeled toolstack crash point, how often
	// the generator reached it and how often a crash was injected
	// there. Nil unless the figure arms toolstack-crash faults
	// (currently ext-churn).
	CrashSites []CrashSiteStat
	// Serving aggregates a traffic-serving figure's latency tail and
	// rejection breakdown (ext-serve, ext-overload); nil otherwise.
	// lightvm-bench -json carries it so benchdiff can gate p99/p999
	// and reject-rate regressions.
	Serving *ServingSummary
}

// ServingSummary is a serving figure's aggregate traffic outcome:
// latency quantiles, rejections by reason, retry and brownout
// accounting.
type ServingSummary = experiments.ServingSummary

// CrashSiteStat is one labeled crash point's opportunity/injection
// counters.
type CrashSiteStat = faults.SiteStat

// SubsystemCost is one simulator subsystem's share of a profile
// dimension (flat CPU time or allocated heap bytes).
type SubsystemCost struct {
	// Subsystem is the bucket: "internal/<pkg>" for simulator
	// packages, "lightvm" for the facade, "runtime", "std" or "other".
	Subsystem string `json:"subsystem"`
	// Value is nanoseconds (CPU) or sampled bytes (heap).
	Value int64 `json:"value"`
	// Percent is the bucket's share of the figure's total (0–100).
	Percent float64 `json:"percent"`
}

// FunctionCost is one function's share of a figure's heap delta, with
// the subsystem it bills to attached.
type FunctionCost struct {
	// Function is the fully-qualified symbol as pprof reports it.
	Function string `json:"function"`
	// Subsystem is the function's bucket (the store's intern and pool
	// tables bill to "internal/xenstore" like the rest of the package).
	Subsystem string `json:"subsystem"`
	// Value is sampled allocated bytes.
	Value int64 `json:"value"`
	// Percent is the function's share of the figure's heap delta
	// (0–100).
	Percent float64 `json:"percent"`
}

// ExperimentProfile is the per-figure profiling report: where the raw
// pprof files were written (open them with `go tool pprof`) and the
// top-5 subsystems by flat CPU time and heap bytes.
type ExperimentProfile struct {
	// CPUFile/HeapFile are the captured profile paths ("" if that mode
	// was off).
	CPUFile  string `json:"cpu_file,omitempty"`
	HeapFile string `json:"heap_file,omitempty"`
	// CPU and Heap rank subsystems (top-5, deterministic order). CPU
	// counts only samples labeled with this figure's id; Heap is the
	// pre/post alloc_space delta.
	CPU  []SubsystemCost `json:"cpu,omitempty"`
	Heap []SubsystemCost `json:"heap,omitempty"`
	// HeapTopFuncs drills the heap delta down to the top-10 flat
	// allocation sites (function-level).
	HeapTopFuncs []FunctionCost `json:"heap_top_funcs,omitempty"`
	// CPUTotalNanos is the figure's own sampled CPU time;
	// CPUForeignNanos is what else landed in the raw profile (on
	// parallel runs, concurrent unprofiled figures).
	CPUTotalNanos   int64 `json:"cpu_total_nanos,omitempty"`
	CPUForeignNanos int64 `json:"cpu_foreign_nanos,omitempty"`
	// HeapDeltaBytes is the sampled alloc_space growth across the run.
	HeapDeltaBytes int64 `json:"heap_delta_bytes,omitempty"`
	// Text is a one-line rendering suitable for terminal output.
	Text string `json:"-"`
}

func toExperimentResult(res experiments.Result) ExperimentResult {
	out := ExperimentResult{
		ID:         res.ID,
		Paper:      res.Paper,
		Output:     res.Table.String(),
		WallMS:     float64(res.Wall) / 1e6,
		VirtualMS:  res.VirtualMS,
		Allocs:     res.Allocs,
		CrashSites: res.CrashSites,
		Serving:    res.Serving,
	}
	if tab, ok := res.Table.(*metrics.Table); ok {
		// Most of the paper's time figures are log-scale.
		out.Plot = tab.Plot(72, 18, true)
	}
	if sum := res.Profile; sum != nil {
		costs := func(in []profiling.Cost) []SubsystemCost {
			out := make([]SubsystemCost, len(in))
			for i, c := range in {
				out[i] = SubsystemCost{Subsystem: c.Subsystem, Value: c.Value, Percent: c.Percent}
			}
			return out
		}
		funcs := make([]FunctionCost, len(sum.HeapTopFuncs))
		for i, fc := range sum.HeapTopFuncs {
			funcs[i] = FunctionCost{Function: fc.Function, Subsystem: fc.Subsystem, Value: fc.Value, Percent: fc.Percent}
		}
		out.Profile = &ExperimentProfile{
			CPUFile:         sum.CPUFile,
			HeapFile:        sum.HeapFile,
			CPU:             costs(sum.CPU),
			Heap:            costs(sum.Heap),
			HeapTopFuncs:    funcs,
			CPUTotalNanos:   sum.CPUTotalNanos,
			CPUForeignNanos: sum.CPUForeignNanos,
			HeapDeltaBytes:  sum.HeapDeltaBytes,
			Text:            sum.String(),
		}
	}
	return out
}

// FsckViolation is one broken cross-layer invariant found by the
// consistency checker: a store node, hypervisor domain, memory
// charge, event channel, grant or pooled shell that no live guest
// accounts for.
type FsckViolation = toolstack.Violation

// Fsck audits a quiescent host's cross-layer invariants and returns
// every violation (empty = consistent). Run it after lifecycle
// operations have finished, not mid-operation.
func Fsck(h *Host) []FsckViolation { return toolstack.Fsck(h.Env) }

// SetEnvTracking switches global environment tracking on or off
// (clearing any tracked list). With tracking on, every environment
// built afterwards — including the ones experiment generators build
// internally — is registered for FsckTracked. Tracking pins
// environments in memory; leave it off outside consistency gates.
var SetEnvTracking = toolstack.SetEnvTracking

// FsckTracked audits every live tracked environment (see
// SetEnvTracking) and returns how many were checked plus all
// violations found.
var FsckTracked = toolstack.FsckTracked

// RunExperiment regenerates one paper figure at the given scale
// (1.0 = the paper's guest counts; smaller is proportionally cheaper).
func RunExperiment(id string, scale float64, seed uint64) (ExperimentResult, error) {
	res, err := experiments.Run(id, experiments.Options{Scale: scale, Seed: seed})
	if err != nil {
		return ExperimentResult{}, err
	}
	return toExperimentResult(res), nil
}

// RunExperiments regenerates the given figures (all registered ones if
// ids is empty) on a bounded worker pool. parallel bounds the pool:
// 0 uses GOMAXPROCS, 1 forces sequential execution. Results come back
// in input order and are byte-identical regardless of parallelism —
// every figure (and every series within a figure) owns its own virtual
// clock, host and RNG.
func RunExperiments(ids []string, scale float64, seed uint64, parallel int) ([]ExperimentResult, error) {
	return RunExperimentsOpts(ids, ExperimentOptions{Scale: scale, Seed: seed, Parallel: parallel})
}

// ExperimentOptions configures RunExperimentsOpts. The zero value of
// Scale/Seed falls back to full scale / seed 1.
type ExperimentOptions struct {
	// Scale multiplies the paper's guest counts (1.0 = full scale).
	Scale float64
	// Seed drives all randomized workload choices.
	Seed uint64
	// Parallel bounds the worker pool (0 = GOMAXPROCS, 1 = sequential).
	Parallel int
	// Shards pins the engine worker count for figures built on the
	// sharded cluster core (ext-cluster). 0 = the figure's default
	// sweep over {1, 2, 8} with an in-run byte-equality check; any
	// value yields an identical table.
	Shards int
	// ProfileCPU/ProfileHeap capture a pprof CPU/heap profile per
	// figure into ProfileDir ("." when empty) as <id>.cpu.pb.gz /
	// <id>.heap.pb.gz and attach a subsystem attribution summary to
	// each ExperimentResult.Profile. CPU profiling is process-global,
	// so on parallel runs profiled figures serialize through a token
	// while unprofiled work proceeds; the raw CPU profile may carry
	// foreign samples (reported, not hidden — see
	// ExperimentProfile.CPUForeignNanos).
	ProfileCPU  bool
	ProfileHeap bool
	ProfileDir  string
	// ProfileFigures restricts profiling to these figure ids (empty =
	// every figure in the run).
	ProfileFigures []string
}

// RunExperimentsOpts is RunExperiments with the full option set,
// including per-figure pprof profiling.
func RunExperimentsOpts(ids []string, o ExperimentOptions) ([]ExperimentResult, error) {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	res, err := experiments.RunMany(ids, experiments.Options{
		Scale: o.Scale, Seed: o.Seed, Parallel: o.Parallel, Shards: o.Shards,
		Profile: experiments.ProfileOptions{
			CPU: o.ProfileCPU, Heap: o.ProfileHeap, Dir: o.ProfileDir, Only: o.ProfileFigures,
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]ExperimentResult, len(res))
	for i, r := range res {
		out[i] = toExperimentResult(r)
	}
	return out, nil
}

// Open-loop traffic serving (the engine behind the ext-serve figure):
// seeded arrival processes drive one host with per-request guests.

type (
	// TrafficConfig parameterizes one open-loop serving run (mode,
	// arrival process, admission limits, autoscaler policy).
	TrafficConfig = traffic.Config
	// TrafficStats is a run's outcome: latency histogram, timeout and
	// rejection counters, warm-shell trajectory.
	TrafficStats = traffic.Stats
	// TrafficMode selects the serving backend (VM per request, warm
	// pools, container, process).
	TrafficMode = traffic.Mode
	// TrafficReject is the typed admission-backpressure error.
	TrafficReject = traffic.Reject
	// RejectReason classifies admission backpressure (backlog,
	// capacity, overload, quota, retry-budget).
	RejectReason = traffic.RejectReason
	// OverloadState is the serving plane's degradation level
	// (Normal → Brownout → Shedding), surfaced in TrafficStats.
	OverloadState = traffic.OverloadState
	// TrafficDefense toggles the overload defenses per serving run:
	// AIMD adaptive admission, retry budgets, two-priority shedding
	// and brownout serving. The zero value reproduces the undefended
	// plane exactly.
	TrafficDefense = traffic.Defense
	// TrafficClass is a request's scheduling class for two-priority
	// shedding (paid sheds last, batch first).
	TrafficClass = traffic.Class
	// PhaseRate is one segment of a phased (piecewise-Poisson)
	// arrival process.
	PhaseRate = traffic.PhaseRate
	// TrafficPhaseStats is one accounting phase's slice of a serving
	// run (see TrafficConfig.PhaseBounds).
	TrafficPhaseStats = traffic.PhaseStats
	// Arrivals is an arrival process: seeded, deterministic,
	// allocation-free gap generation on the virtual clock.
	Arrivals = traffic.Arrivals
	// AutoscalerConfig tunes the warm-pool autoscaler (policy, depth
	// bounds, prediction horizon).
	AutoscalerConfig = toolstack.AutoscalerConfig
)

// Serving backends and autoscaler policies.
const (
	VMPerRequest    = traffic.VMPerRequest
	PoolReactive    = traffic.PoolReactive
	PoolPredictive  = traffic.PoolPredictive
	ContainerMode   = traffic.Container
	ProcessMode     = traffic.Process
	VMPerRequestXL  = traffic.VMPerRequestXL
	ScaleReactive   = toolstack.ScaleReactive
	ScalePredictive = toolstack.ScalePredictive
)

// Admission reject reasons (TrafficReject.Reason).
const (
	RejectBacklog  = traffic.RejectBacklog
	RejectCapacity = traffic.RejectCapacity
	RejectOverload = traffic.RejectOverload
	RejectQuota    = traffic.RejectQuota
	RejectBudget   = traffic.RejectBudget
)

// Overload states (the Normal → Brownout → Shedding ladder).
const (
	StateNormal   = traffic.StateNormal
	StateBrownout = traffic.StateBrownout
	StateShedding = traffic.StateShedding
)

// Request classes for two-priority shedding.
const (
	ClassPaid  = traffic.ClassPaid
	ClassBatch = traffic.ClassBatch
)

// EstimateCapacity measures a serving mode's sustainable request rate
// on an idle scratch host — the denominator behind "offered load at
// 2× capacity" in overload scenarios.
var EstimateCapacity = traffic.EstimateCapacity

// Arrival-process constructors.
var (
	// NewPoisson is memoryless traffic at a fixed rate.
	NewPoisson = traffic.NewPoisson
	// NewMMPP is two-state bursty traffic; instances sharing a modSeed
	// burst at the same virtual times (fleet-synchronized crowds).
	NewMMPP = traffic.NewMMPP
	// NewTrace replays a recorded gap sequence.
	NewTrace = traffic.NewTrace
	// NewPhased is piecewise-Poisson traffic: the rate switches at
	// fixed virtual-time boundaries (pre-burst / burst / post-burst
	// timelines for overload studies).
	NewPhased = traffic.NewPhased
	// FlashTrace synthesizes a replayable flash-crowd trace.
	FlashTrace = traffic.FlashTrace
)

// ServeTraffic runs one open-loop serving timeline on a fresh host:
// arrivals keep coming on schedule whether or not the control plane
// keeps up, each one boots (or pool-takes) a real guest, gets its
// response, and is torn down. Returns the run's stats and the host
// (for Fsck and inspection).
func ServeTraffic(cfg TrafficConfig) (*TrafficStats, *Host, error) {
	return traffic.Serve(cfg)
}

// BuildTinyx runs the §3.2 build system: dependency discovery,
// overlay install over a debootstrap base, BusyBox underlay merge,
// and the tinyconfig kernel shrink loop. app is a package name from
// the synthetic Debian universe (e.g. "nginx", "micropython");
// platform is "xen" or "kvm".
func BuildTinyx(app, platform string) (*TinyxResult, error) {
	return tinyx.Build(tinyx.DebianUniverse(), tinyx.BuildConfig{App: app, Platform: platform})
}

// TinyxApps lists the application packages BuildTinyx accepts.
func TinyxApps() []string { return tinyx.DebianUniverse().Names() }

// Use-case building blocks (§7).

type (
	// Firewall is the ClickOS-style per-user packet filter (§7.1).
	Firewall = apps.Firewall
	// FirewallAction is a filter verdict (Allow/Deny).
	FirewallAction = apps.Action
	// TLSTerminator is the §7.3 termination proxy state machine.
	TLSTerminator = tlsterm.Terminator
	// NetStack selects a guest TCP/IP implementation.
	NetStack = netstack.Stack
)

// Firewall verdicts and network stacks.
const (
	Allow    = apps.Allow
	Deny     = apps.Deny
	LinuxTCP = netstack.LinuxTCP
	Lwip     = netstack.Lwip
)

// NewPersonalFirewall builds a per-subscriber firewall configuration.
var NewPersonalFirewall = apps.NewPersonalFirewall

// NewTLSTerminator creates a termination endpoint on a host's clock
// using the given guest network stack.
func NewTLSTerminator(h *Host, stack NetStack) *TLSTerminator {
	return tlsterm.New(h.Clock, stack)
}

// RunPython executes a program on the Minipython interpreter (the
// §7.4 compute-service payload engine) and returns its output.
func RunPython(program string) (string, error) {
	res, err := minipy.Run(program, 0)
	if err != nil {
		return "", fmt.Errorf("lightvm: %w", err)
	}
	return res.Output, nil
}

// ApproxEProgram is the paper's compute-service job: an approximation
// of e in Minipython.
const ApproxEProgram = minipy.ApproxEProgram
