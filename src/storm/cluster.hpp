// The public face of the library: a simulated STORM-managed cluster.
//
//   sim::Simulator sim;
//   auto cfg = storm::core::ClusterConfig::es40(64);   // the paper's testbed
//   storm::core::Cluster cluster(sim, cfg);
//   auto id = cluster.submit({.name = "sweep3d", .binary_size = 12_MB,
//                             .npes = 256, .program = apps::sweep3d(...)});
//   cluster.run_until_all_complete();
//   auto& t = cluster.job(id).times();   // send/execute/launch times
//
// The Cluster owns the whole simulated machine: the QsNET fabric, one
// Machine (CPUs + OS + filesystems) per node, the per-node NM and PL
// dæmons, and the MM on node 0. Loads and faults can be injected to
// reproduce the paper's loaded-launch (Figure 3) and fault-detection
// (Section 4) scenarios.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"
#include "mech/qsnet_mechanisms.hpp"
#include "net/qsnet.hpp"
#include "node/machine.hpp"
#include "storm/job.hpp"
#include "storm/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace storm::telemetry {
class MetricsAggregator;
class CausalTracer;
class TimeSeriesRecorder;
struct TimeSeriesOptions;
}

namespace storm::core {

class MachineManager;
class NodeManager;
class PlaneRuntime;
class ProgramLauncher;
class ReplicationGroup;

enum class SchedulerKind {
  Gang,       // coordinated time slicing (Ousterhout matrix)
  BatchFcfs,  // space sharing, strict FIFO
  BatchEasy,  // space sharing with EASY backfilling
  BatchConservative,  // space sharing with conservative (profile-based)
                      // backfilling: reservations for every queued job
  LocalOs,    // uncoordinated: co-located PEs timeshare under the node
              // OS alone (the foil that motivates gang scheduling)
  ImplicitCosched,  // Arpaci-Dusseau implicit coscheduling: local OS
                    // scheduling + two-phase spin-block receives (the
                    // paper lists ICS among STORM's supported
                    // algorithms, Section 4)
};

/// True for the policies that time-share PEs without MM coordination.
constexpr bool is_locally_scheduled(SchedulerKind k) {
  return k == SchedulerKind::LocalOs || k == SchedulerKind::ImplicitCosched;
}

constexpr std::string_view to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::Gang: return "gang";
    case SchedulerKind::BatchFcfs: return "batch-fcfs";
    case SchedulerKind::BatchEasy: return "batch-easy";
    case SchedulerKind::BatchConservative: return "batch-conservative";
    case SchedulerKind::LocalOs: return "local-os";
    case SchedulerKind::ImplicitCosched: return "implicit-cosched";
  }
  return "?";
}

/// How an application receive waits for its message. User-level
/// communication libraries of the paper's era (Elan/MPI) busy-polled
/// the NIC — which is precisely why uncoordinated scheduling wastes
/// quanta and gang coscheduling pays off. Implicit coscheduling's
/// contribution is the two-phase spin-block.
enum class RecvWait {
  Spin,       // busy-poll until the message lands (era-accurate default)
  Block,      // yield the CPU immediately (kernel-assisted messaging)
  SpinBlock,  // spin briefly, then yield (implicit coscheduling)
};

/// What the MM does with jobs that span a node it has declared dead.
enum class FailurePolicy {
  Requeue,  // kill the incarnation, bump it, and put the job back in
            // the queue (bounded by max_job_restarts)
  Abort,    // kill the incarnation and mark the job Aborted
};

/// Knobs of the STORM management plane itself.
struct StormParams {
  SchedulerKind scheduler = SchedulerKind::Gang;
  sim::SimTime quantum = sim::SimTime::ms(50);  // timeslice & heartbeat
  int max_mpl = 2;                              // Ousterhout matrix rows

  // Dæmon service times (CPU work, not magic delays).
  sim::SimTime mm_boundary_cost = sim::SimTime::us(10);
  sim::SimTime nm_cmd_cost = sim::SimTime::us(30);
  sim::SimTime nm_strobe_switch_cost = sim::SimTime::us(220);
  sim::SimTime pl_notify_cost = sim::SimTime::us(30);

  // File-transfer protocol (Figure 8's knobs).
  sim::Bytes chunk_size = 512 * 1024;
  int slots = 4;
  node::FsKind source_fs = node::FsKind::RamDisk;
  net::BufferPlace buffers = net::BufferPlace::MainMemory;
  sim::SimTime flow_control_poll = sim::SimTime::us(25);

  // Heartbeat-based fault detection (Section 4). A node is declared
  // dead only once its heartbeat word lags heartbeat_miss_periods
  // consecutive epochs: the NM dæmon shares its CPU with application
  // PEs, so a loaded node can legitimately ack one period late.
  bool heartbeat_enabled = false;
  int heartbeat_period_quanta = 10;
  int heartbeat_miss_periods = 2;

  // Batched periodic delivery (DESIGN §2.3): strobe/heartbeat
  // multicasts land on idle nodes as one zero-delay sweep event per
  // contiguous run of quiescent dæmons instead of a put/resume/finish
  // event triple per node. Byte-identical to the event-driven path by
  // construction; the switch exists for A/B micro-benchmarks and as an
  // escape hatch.
  bool batched_periodic_delivery = true;

  // Failure recovery (builds on heartbeat detection). On a declared
  // node death the MM evicts the node from every buddy tree, kills and
  // (per policy) requeues the jobs spanning it, and re-strobes the
  // surviving partition.
  FailurePolicy failure_policy = FailurePolicy::Requeue;
  int max_job_restarts = 3;  // kill-and-requeue budget per job

  // In-flight binary transfers: when a flow-control poll stalls past
  // the timeout, the sender re-derives the live destination set from
  // the MM's failure list (a mid-transfer crash shrinks the multicast
  // set instead of wedging) and backs off exponentially, bounded by
  // transfer_max_backoff.
  sim::SimTime transfer_stall_timeout = sim::SimTime::ms(2);
  sim::SimTime transfer_max_backoff = sim::SimTime::ms(5);

  // Hot-standby MM failover. The standby shadows the primary through
  // the fabric (every MM command lands on its node's NM); when no
  // command has arrived for standby_miss_periods heartbeat periods it
  // declares the primary dead, rebuilds allocation state from the
  // cluster-owned job table and resumes time-slicing. Requires
  // heartbeat_enabled (the periodic multicast is the liveness signal
  // on an idle machine).
  bool standby_mm_enabled = false;
  int standby_node = -1;  // <0: the last node
  int standby_miss_periods = 3;

  // Quorum-replicated MM (DESIGN §3.6): every state-changing MM
  // command commits through a majority of repl_replicas MM replicas
  // before its effects are enacted, and leadership is a lease renewed
  // by majority ack — failover shrinks from a silence timeout to a
  // lease expiry, and two leaders per term are impossible by
  // construction. Mutually exclusive with standby_mm_enabled (pick a
  // failover scheme). The lease/election rule repl_election_base >
  // repl_lease is asserted: a voter withholds its grant while its
  // leader is fresher than repl_election_base, so every old lease has
  // expired before a new one can be issued.
  bool replication_enabled = false;
  int repl_replicas = 3;
  sim::SimTime repl_tick = sim::SimTime::ms(1);      // protocol scan
  sim::SimTime repl_renew = sim::SimTime::ms(5);     // renewal cadence
  sim::SimTime repl_lease = sim::SimTime::ms(20);    // lease length
  sim::SimTime repl_election_base = sim::SimTime::ms(25);
  sim::SimTime repl_election_stagger = sim::SimTime::ms(5);  // per rank

  // Application receive-wait discipline. ImplicitCosched forces
  // SpinBlock regardless of this setting.
  RecvWait recv_wait = RecvWait::Spin;
  // SpinBlock: how long a receiver spins (in short CPU bursts) before
  // yielding. Two-ish context-switch costs, per the ICS literature.
  sim::SimTime ics_spin_limit = sim::SimTime::us(200);
  sim::SimTime ics_spin_granule = sim::SimTime::us(50);
};

struct ClusterConfig {
  int nodes = 64;  // a power of two
  int cpus_per_node = 4;
  /// CPUs per node usable by application PEs; the remainder host the
  /// NM/PL/helper dæmons (the paper's gang experiments run 2 PEs/node).
  int app_cpus_per_node = 4;
  std::uint64_t seed = 0x57'0F'4D'2002ULL;

  /// Terascale plane mode: instead of one Machine + NM + PL pool per
  /// node (whose OS schedulers and dæmon coroutines dominate memory and
  /// event count beyond a few thousand nodes), only the MM's node gets
  /// real dæmons and a PlaneRuntime absorbs every MM→NM command as a
  /// single batched range event over the node-state plane. The MM, the
  /// Ousterhout matrix, the buddy allocator, the file-transfer pipeline
  /// and the QsNET model are the real ones — only the per-node dæmon
  /// microcosm is replaced by its aggregate effect on the plane words.
  /// Restrictions: no fault injection, no CPU/standby loads, and
  /// application programs are replaced by JobSpec::plane_work.
  bool plane_mode = false;

  net::QsNetParams net{};
  double cable_m = -1.0;  // <0: the paper's floor-plan estimate
  node::MachineParams machine{};
  StormParams storm{};

  /// The paper's testbed: 64 AlphaServer ES40 nodes, 4 CPUs each,
  /// QsNET with QM-400 Elan3 NICs (Table 3).
  static ClusterConfig es40(int nodes = 64) {
    ClusterConfig c;
    c.nodes = nodes;
    return c;
  }
};

class Cluster {
 public:
  /// Throws std::invalid_argument unless `config.nodes` is a power of
  /// two.
  Cluster(sim::Simulator& sim, ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- job control ------------------------------------------------------
  /// Throws std::invalid_argument when `spec` does not fit the machine
  /// or the job table already holds 16384 jobs.
  JobId submit(JobSpec spec);
  Job& job(JobId id);
  const Job& job(JobId id) const;
  std::size_t job_count() const;
  /// True once every submitted job is Completed or Aborted.
  bool all_jobs_terminal() const;

  /// Step the simulator until every submitted job completes (or the
  /// simulated-time limit passes). Returns true on completion.
  bool run_until_all_complete(
      sim::SimTime limit = sim::SimTime::sec(24 * 3600));

  /// Step until `job` completes (limit as above).
  bool run_until_complete(JobId id,
                          sim::SimTime limit = sim::SimTime::sec(24 * 3600));

  // --- load & fault injection -------------------------------------------
  /// The paper's CPU-loaded scenario: a tight spin loop on every CPU
  /// of every node.
  void start_cpu_load();
  void stop_cpu_load();
  /// The paper's network-loaded scenario: sustained pairwise traffic
  /// from every processor. Default weights are calibrated to its
  /// 256-process loader.
  void start_network_load(double fabric_weight = -1, double pci_weight = 1.0);
  void stop_network_load();
  /// Crash a node: its NIC stops acking COMPARE-AND-WRITE, drops
  /// XFER-AND-SIGNAL deliveries, and discards local events; the NM
  /// dæmon dies and in-flight PE work on the node is cancelled. A
  /// co-located MM dies with its node.
  void crash_node(int node);
  /// Undo crash_node: the NIC comes back with wiped global memory and
  /// the NM restarts with a clean slate, re-registering with the
  /// active MM (which restores the node to the allocator if it had
  /// been evicted, or kills suspect jobs after an undetected outage).
  void recover_node(int node);
  /// Crash the primary MM dæmon only (its node survives): the standby,
  /// when configured, detects the silence and takes over.
  void crash_mm();
  bool node_crashed(int node) const { return node_crashed_[node]; }
  /// Bumped on every crash of `node`; coroutines snapshot it to detect
  /// that their node died under them.
  int node_epoch(int node) const { return node_epoch_[node]; }

  // --- component access ---------------------------------------------------
  sim::Simulator& sim() { return sim_; }
  const ClusterConfig& config() const { return config_; }
  net::QsNet& network() { return *net_; }
  /// All mechanism traffic flows through the fabric; with an empty
  /// middleware chain this is a strict pass-through to the raw
  /// mechanisms (no added latency, no randomness consumed).
  mech::Mechanisms& mech() { return *fabric_; }
  fabric::MechanismFabric& fabric() { return *fabric_; }
  /// The cluster's metrics registry. The dæmons record stage timings
  /// and occupancy gauges here unconditionally (pure bookkeeping, no
  /// simulated time); fabric traffic is aggregated only after
  /// enable_fabric_metrics().
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }
  /// Push a MetricsAggregator onto the fabric chain (idempotent), so
  /// every control-plane envelope rolls into the registry.
  void enable_fabric_metrics();
  /// Push a CausalTracer onto the fabric chain (idempotent): the
  /// dæmons start opening spans and stamping trace contexts on their
  /// fabric operations. Off by default — with tracing disabled the
  /// dæmons' instrumentation is inert (tracer() is null).
  void enable_tracing();
  /// The causal tracer, or nullptr until enable_tracing().
  telemetry::CausalTracer* tracer() { return tracer_.get(); }
  /// Arm the windowed time-series recorder (DESIGN.md §3.7) over this
  /// cluster's registry (idempotent; call before the sim advances so
  /// windows align to t=0). Off by default — with the recorder off
  /// every exported artifact is byte-identical to pre-§3.7 builds.
  void enable_timeseries(const telemetry::TimeSeriesOptions& opts);
  /// The flight recorder, or nullptr until enable_timeseries().
  telemetry::TimeSeriesRecorder* timeseries() { return ts_.get(); }
  const telemetry::TimeSeriesRecorder* timeseries() const {
    return ts_.get();
  }
  /// The unwrapped QsNET mechanisms beneath the fabric.
  mech::Mechanisms& raw_mechanisms() { return *mech_; }
  node::Machine& machine(int n) { return *machines_[n]; }
  node::NfsServer& nfs() { return *nfs_; }
  /// The currently ACTIVE Machine Manager: the primary until a
  /// configured standby has taken over, the standby afterwards.
  MachineManager& mm();
  MachineManager& mm_primary() { return *mm_; }
  /// nullptr unless standby_mm_enabled.
  MachineManager* mm_standby() { return standby_mm_.get(); }
  NodeManager& nm(int n) { return *nms_[n]; }
  /// The quorum-replication group, or nullptr unless
  /// replication_enabled.
  ReplicationGroup* replication() { return repl_.get(); }
  /// MsgClass::Repl delivery from the NM command loop into the local
  /// replica agent (no-op when `node` hosts no replica).
  void deliver_repl(int node, const fabric::ControlMessage& msg);
  ProgramLauncher& pl(int node, int idx);
  int pls_per_node() const;
  /// The lean per-node runtime, or nullptr unless plane_mode.
  PlaneRuntime* plane_runtime() { return plane_rt_.get(); }

  /// Node hosting the active MM.
  int mm_node();
  node::Proc& mm_helper();

  // --- internal services used by the dæmons ------------------------------
  /// Remote-queue command delivery: a small XFER-AND-SIGNAL into each
  /// destination NM's NIC-resident queue (the paper's "queue
  /// management" helper layer). Routed through the fabric as one
  /// CommandMulticast envelope plus one CommandDeliver per node.
  sim::Task<> multicast_command(fabric::Component from, int src,
                                net::NodeRange dsts,
                                fabric::ControlMessage msg,
                                fabric::TraceContext ctx = {});

  /// Application-level messaging between ranks of a job. Channels are
  /// scoped to the incarnation the sending/receiving PE belongs to, so
  /// a requeued incarnation starts with virgin channels and stragglers
  /// from the killed one cannot cross-talk.
  sim::Task<> app_send(Job& job, int incarnation, int src_rank, int dst_rank,
                       sim::Bytes bytes);
  sim::Task<> app_recv(Job& job, int incarnation, int dst_rank, int src_rank);
  /// True if a message from src_rank to dst_rank is already queued.
  bool app_message_pending(Job& job, int incarnation, int dst_rank,
                           int src_rank);
  /// Recovery: wake every PE of (job, incarnation) blocked in recv()
  /// by poisoning its channels with sentinel messages. The woken PEs
  /// observe cancelled() and fast-forward to exit.
  void wake_job_channels(JobId job, int incarnation);

 private:
  friend class AppContext;

  sim::Task<> spin_loop(node::Proc* p);
  sim::Channel<int>& app_channel(JobId job, int inc, int dst, int src);
  sim::Task<> command_wire(int src, net::NodeRange dsts, sim::Bytes bytes);
  void deliver_command(net::NodeRange dsts, const fabric::ControlMessage& msg,
                       fabric::TraceContext ctx);

  sim::Simulator& sim_;
  ClusterConfig config_;
  telemetry::MetricsRegistry metrics_;  // before the dæmons: they
                                        // cache instrument references
  std::shared_ptr<telemetry::MetricsAggregator> fabric_metrics_;
  std::shared_ptr<telemetry::CausalTracer> tracer_;
  std::unique_ptr<telemetry::TimeSeriesRecorder> ts_;
  std::unique_ptr<net::QsNet> net_;
  std::unique_ptr<mech::QsNetMechanisms> mech_;
  std::unique_ptr<fabric::MechanismFabric> fabric_;
  std::unique_ptr<node::NfsServer> nfs_;
  std::vector<std::unique_ptr<node::Machine>> machines_;
  std::vector<std::unique_ptr<NodeManager>> nms_;
  std::vector<std::vector<std::unique_ptr<ProgramLauncher>>> pls_;
  std::unique_ptr<MachineManager> mm_;
  std::unique_ptr<MachineManager> standby_mm_;
  std::unique_ptr<ReplicationGroup> repl_;
  std::vector<std::unique_ptr<MachineManager>> repl_mms_;  // ranks 1..
  std::vector<MachineManager*> repl_mm_by_rank_;
  std::unique_ptr<PlaneRuntime> plane_rt_;

  // The job table is cluster state, not MM state: a failover standby
  // rebuilds its scheduling structures from here.
  std::vector<std::unique_ptr<Job>> jobs_;

  // crash/recovery state
  std::vector<bool> node_crashed_;
  std::vector<int> node_epoch_;

  // load injection state
  bool cpu_load_on_ = false;
  std::vector<node::Proc*> spinners_;
  std::vector<sim::SharedBandwidth::LoadHandle> net_load_;

  std::unordered_map<std::uint64_t, std::unique_ptr<sim::Channel<int>>>
      app_channels_;

  // Lazily resolved on the first coalesced cohort fire so the series
  // never appears in runs that exercise no periodic cohorts (keeps
  // pinned-figure --metrics output stable).
  telemetry::Counter* mt_timer_coalesced_ = nullptr;
};

}  // namespace storm::core
