#include "storm/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "storm/buddy_allocator.hpp"
#include "storm/machine_manager.hpp"
#include "storm/node_manager.hpp"
#include "storm/plane_runtime.hpp"
#include "storm/replication/replication.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/tracing.hpp"

namespace storm::core {

using sim::SimTime;
using sim::Task;

Cluster::Cluster(sim::Simulator& sim, ClusterConfig config)
    : sim_(sim), config_(config) {
  // Checked before anything registers with the simulator.
  if (!BuddyAllocator::is_pow2(config_.nodes)) {
    throw std::invalid_argument(
        "ClusterConfig.nodes (" + std::to_string(config_.nodes) +
        ") must be a power of two: the buddy allocator tiles the machine");
  }
  // Surface the engine's periodic-cohort coalescing in this cluster's
  // metrics. The counter is resolved on the first coalesced fire, so
  // runs that never coalesce (every pinned figure today) serialise an
  // unchanged registry.
  sim_.set_periodic_observer(
      [](void* opaque, std::uint64_t saved) {
        auto* self = static_cast<Cluster*>(opaque);
        if (self->mt_timer_coalesced_ == nullptr) {
          self->mt_timer_coalesced_ =
              &self->metrics_.counter("sim.timer.coalesced");
        }
        self->mt_timer_coalesced_->add(static_cast<std::int64_t>(saved));
      },
      this);
  assert(config_.app_cpus_per_node >= 1 &&
         config_.app_cpus_per_node <= config_.cpus_per_node);
  config_.machine.os.cpus = config_.cpus_per_node;

  net_ = std::make_unique<net::QsNet>(sim_, config_.nodes, config_.net,
                                      config_.cable_m);
  mech_ = std::make_unique<mech::QsNetMechanisms>(*net_);
  fabric_ = std::make_unique<fabric::MechanismFabric>(sim_, *mech_);
  nfs_ = std::make_unique<node::NfsServer>(sim_);

  node_crashed_.assign(config_.nodes, false);
  node_epoch_.assign(config_.nodes, 0);

  // Plane mode: only the MM's node gets a real Machine; every other
  // node exists solely as contiguous slots in the node-state plane,
  // serviced by the PlaneRuntime below.
  const int machine_count = config_.plane_mode ? 1 : config_.nodes;
  machines_.reserve(machine_count);
  for (int n = 0; n < machine_count; ++n) {
    machines_.push_back(std::make_unique<node::Machine>(
        sim_, n, config_.machine, net_.get(), nfs_.get()));
  }

  // Per-node dæmons: one NM plus app_cpus x max_mpl PLs.
  const int mpl = std::max(1, config_.storm.max_mpl);
  assert(config_.app_cpus_per_node * mpl <= net::NodeStatePlane::kMaxPlSlots &&
         "PL pool exceeds the plane's per-node occupancy mask");
  if (config_.plane_mode) {
    assert(!config_.storm.standby_mm_enabled &&
           "plane mode hosts dæmons only on the MM's node; a standby MM "
           "needs a real NM on its own node");
    plane_rt_ = std::make_unique<PlaneRuntime>(*this);
    net_->set_range_signal_hook(
        [this](int src, net::NodeRange dsts, net::EventAddr ev) {
          return plane_rt_->on_remote_signal(src, dsts, ev);
        });
    mm_ = std::make_unique<MachineManager>(*this, 0);
    mm_->start();
    return;
  }
  nms_.reserve(config_.nodes);
  pls_.resize(config_.nodes);
  for (int n = 0; n < config_.nodes; ++n) {
    nms_.push_back(std::make_unique<NodeManager>(*this, n));
    for (int cpu = 0; cpu < config_.app_cpus_per_node; ++cpu) {
      for (int s = 0; s < mpl; ++s) {
        pls_[n].push_back(std::make_unique<ProgramLauncher>(
            *this, n, cpu, s, static_cast<int>(pls_[n].size())));
      }
    }
  }

  mm_ = std::make_unique<MachineManager>(*this, 0);
  if (config_.storm.standby_mm_enabled) {
    assert(config_.storm.heartbeat_enabled &&
           "the standby MM needs the heartbeat multicast as its liveness "
           "signal on an idle machine");
    const int sn = config_.storm.standby_node >= 0 ? config_.storm.standby_node
                                                   : config_.nodes - 1;
    assert(sn != mm_->node() && "standby MM must live on a different node");
    standby_mm_ = std::make_unique<MachineManager>(*this, sn, /*standby=*/true);
  }
  if (config_.storm.replication_enabled) {
    assert(!config_.storm.standby_mm_enabled &&
           "quorum replication and the hot standby are alternative failover "
           "schemes; enable one");
    repl_ = std::make_unique<ReplicationGroup>(*this,
                                               config_.storm.repl_replicas);
    mm_->attach_replication(repl_.get(), 0);
    repl_mm_by_rank_.push_back(mm_.get());
    for (int r = 1; r < repl_->replicas(); ++r) {
      repl_mms_.push_back(std::make_unique<MachineManager>(
          *this, repl_->node_of_rank(r), /*standby=*/true));
      repl_mms_.back()->attach_replication(repl_.get(), r);
      repl_mm_by_rank_.push_back(repl_mms_.back().get());
    }
  }

  for (auto& nm : nms_) nm->start();
  mm_->start();
  if (standby_mm_) standby_mm_->start();
  for (auto& fmm : repl_mms_) fmm->start();
  if (repl_) repl_->start();
}

Cluster::~Cluster() { sim_.set_periodic_observer(nullptr, nullptr); }

void Cluster::enable_fabric_metrics() {
  if (fabric_metrics_) return;
  fabric_metrics_ =
      std::make_shared<telemetry::MetricsAggregator>(sim_, metrics_);
  fabric_->push(fabric_metrics_);
}

void Cluster::enable_tracing() {
  if (tracer_) return;
  tracer_ = std::make_shared<telemetry::CausalTracer>(sim_);
  fabric_->push(tracer_);
}

void Cluster::enable_timeseries(const telemetry::TimeSeriesOptions& opts) {
  if (ts_) return;
  ts_ = std::make_unique<telemetry::TimeSeriesRecorder>(sim_, metrics_, opts);
  ts_->arm();
}

MachineManager& Cluster::mm() {
  if (repl_) return *repl_mm_by_rank_[repl_->active_rank()];
  if (standby_mm_ && standby_mm_->active() && !standby_mm_->crashed()) {
    return *standby_mm_;
  }
  return *mm_;
}

void Cluster::deliver_repl(int node, const fabric::ControlMessage& msg) {
  if (!repl_) return;
  const int rank = repl_->rank_of_node(node);
  if (rank >= 0) repl_->receive(rank, msg);
}

int Cluster::mm_node() { return mm().node(); }
node::Proc& Cluster::mm_helper() { return mm().helper(); }

JobId Cluster::submit(JobSpec spec) {
  if (spec.npes < 1 ||
      spec.npes > config_.nodes * config_.app_cpus_per_node) {
    throw std::invalid_argument(
        "JobSpec.npes (" + std::to_string(spec.npes) +
        ") outside machine capacity (" +
        std::to_string(config_.nodes * config_.app_cpus_per_node) + " PEs)");
  }
  if (spec.binary_size <= 0) {
    throw std::invalid_argument("JobSpec.binary_size must be positive");
  }
  constexpr std::size_t kMaxJobs = 1 << 14;  // app_channel() key width
  if (jobs_.size() >= kMaxJobs) {
    throw std::invalid_argument("Cluster::submit: the job table is full (" +
                                std::to_string(kMaxJobs) + " jobs)");
  }
  if (!spec.program) spec.program = do_nothing_program();
  const JobId id = static_cast<JobId>(jobs_.size());
  jobs_.push_back(std::make_unique<Job>(id, std::move(spec)));
  jobs_.back()->times().submit = sim_.now();
  mm().enqueue(id);
  return id;
}

Job& Cluster::job(JobId id) {
  assert(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
  return *jobs_[id];
}
const Job& Cluster::job(JobId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
  return *jobs_[id];
}

std::size_t Cluster::job_count() const { return jobs_.size(); }

bool Cluster::all_jobs_terminal() const {
  for (const auto& j : jobs_) {
    const JobState st = j->state();
    if (st != JobState::Completed && st != JobState::Aborted) return false;
  }
  return true;
}

ProgramLauncher& Cluster::pl(int node, int idx) { return *pls_[node][idx]; }

int Cluster::pls_per_node() const {
  return static_cast<int>(pls_.empty() ? 0 : pls_[0].size());
}

bool Cluster::run_until_all_complete(SimTime limit) {
  while (!all_jobs_terminal()) {
    if (sim_.now() > limit) return false;
    if (!sim_.step()) return false;
  }
  return true;
}

bool Cluster::run_until_complete(JobId id, SimTime limit) {
  while (job(id).state() != JobState::Completed &&
         job(id).state() != JobState::Aborted) {
    if (sim_.now() > limit) return false;
    if (!sim_.step()) return false;
  }
  return true;
}

void Cluster::start_cpu_load() {
  assert(!config_.plane_mode && "plane mode has no per-node CPUs to load");
  if (cpu_load_on_) return;
  cpu_load_on_ = true;
  if (spinners_.empty()) {
    for (int n = 0; n < config_.nodes; ++n) {
      for (int c = 0; c < config_.cpus_per_node; ++c) {
        spinners_.push_back(&machines_[n]->os().create(
            "spin." + std::to_string(n) + "." + std::to_string(c), c));
      }
    }
  }
  for (node::Proc* p : spinners_) {
    sim_.spawn(spin_loop(p));
  }
}

Task<> Cluster::spin_loop(node::Proc* p) {
  while (cpu_load_on_) {
    co_await p->compute(SimTime::ms(100));
  }
}

void Cluster::stop_cpu_load() { cpu_load_on_ = false; }

void Cluster::start_network_load(double fabric_weight, double pci_weight) {
  if (fabric_weight < 0) {
    // Calibrated to the paper's loader: one ping-pong process per CPU
    // on every node (256 processes on the testbed), which drags the
    // 12 MB / 64-node launch to ~1.5 s (Figure 3).
    fabric_weight =
        0.075 * static_cast<double>(config_.nodes * config_.cpus_per_node);
  }
  net_load_.push_back(net_->add_fabric_load(fabric_weight));
  if (pci_weight > 0) {
    for (int n = 0; n < config_.nodes; ++n) {
      net_load_.push_back(net_->pci(n).add_background_load(pci_weight));
    }
  }
}

void Cluster::stop_network_load() { net_load_.clear(); }

void Cluster::crash_node(int node) {
  assert(node >= 0 && node < config_.nodes);
  assert(!config_.plane_mode && "plane mode does not model node faults");
  if (node_crashed_[node]) return;
  node_crashed_[node] = true;
  ++node_epoch_[node];
  // The NIC dies first: no more CAW acks, dropped deliveries,
  // discarded local events.
  fabric_->set_node_failed(node, true);
  // Then the dæmons and any in-flight local work.
  nms_[node]->crash();
  for (auto& pl : pls_[node]) pl->cancel();
  // The PEs died with the node: clear the PL occupancy mask now rather
  // than when the cancelled launch coroutines notice (the plane must
  // never show busy launchers on a failed node).
  for (int slot = 0; slot < pls_per_node(); ++slot) {
    net_->plane().set_pl_busy(node, slot, false);
  }
  if (node == mm_->node()) mm_->crash();
  if (standby_mm_ && node == standby_mm_->node()) standby_mm_->crash();
  if (repl_) {
    const int rank = repl_->rank_of_node(node);
    if (rank >= 0) {
      repl_mm_by_rank_[rank]->crash();
      repl_->replica_crashed(rank);
    }
  }
}

void Cluster::recover_node(int node) {
  assert(node >= 0 && node < config_.nodes);
  if (!node_crashed_[node]) return;
  node_crashed_[node] = false;
  // NIC comes back with wiped global memory (clean re-registration
  // slate) and the NM restarts.
  fabric_->set_node_failed(node, false);
  nms_[node]->restart();
  // A crashed MM does not come back with its node, but a recovered
  // replica host's agent rejoins the quorum (acks and votes; the rank
  // never leads again).
  if (repl_) {
    const int rank = repl_->rank_of_node(node);
    if (rank >= 0) repl_->replica_recovered(rank);
  }
  // The surviving (active) MM re-admits the node, or kills suspect
  // jobs after an undetected outage.
  MachineManager& active = mm();
  if (!active.crashed()) active.handle_node_recovered(node);
}

void Cluster::crash_mm() {
  MachineManager& victim = mm();
  victim.crash();
  if (repl_) repl_->mm_crashed(repl_->rank_of_node(victim.node()));
}

Task<> Cluster::command_wire(int src, net::NodeRange dsts, sim::Bytes bytes) {
  co_await net_->broadcast(src, dsts, bytes, net::BufferPlace::NicMemory);
}

void Cluster::deliver_command(net::NodeRange dsts,
                              const fabric::ControlMessage& msg,
                              fabric::TraceContext ctx) {
  if (msg.cls == fabric::MsgClass::Repl) {
    // The replica agent taps the NIC delivery interrupt directly, like
    // the mech's remote ops — never the dæmon command queue. A busy
    // (or dead) dæmon must not delay votes, acks, or lease renewals:
    // the lease math assumes the only latency between replicas is the
    // wire.
    for (int n = dsts.first; n <= dsts.last(); ++n) {
      if (!net_->node_failed(n)) deliver_repl(n, msg);
    }
    return;
  }
  if (plane_rt_) {
    plane_rt_->deliver(dsts, msg, ctx);
    return;
  }
  const bool sweepable =
      config_.storm.batched_periodic_delivery &&
      (msg.cls == fabric::MsgClass::Strobe ||
       msg.cls == fabric::MsgClass::Heartbeat);
  if (!sweepable) {
    // Full simulation: fan the range out into the per-node NM
    // mailboxes in ascending order — the same put sequence the
    // per-node delivery path produced, so goldens are unchanged.
    for (int n = dsts.first; n <= dsts.last(); ++n) {
      if (!net_->node_failed(n) && !nms_[n]->stopped()) {
        nms_[n]->deliver(fabric::TracedCommand{msg, ctx});
      }
    }
    return;
  }
  // Periodic sweep: coalesce each maximal run of absorb-eligible nodes
  // into ONE zero-delay sweep event instead of a put/resume pair per
  // node. Events are emitted strictly in node order (a sweep is
  // flushed before the put of the first node after it), so zero-delay
  // sequence numbers — and with them span-begin order and per-machine
  // RNG draws — line up with the event-driven path.
  const int mm_node = mm_ ? mm_->node() : -1;
  const int standby_node = standby_mm_ ? standby_mm_->node() : -1;
  int seg_first = -1;
  auto flush = [&](int seg_last) {
    if (seg_first < 0) return;
    const fabric::TracedCommand tc{msg, ctx};
    sim_.schedule_after(sim::SimTime::zero(),
                        [this, tc, first = seg_first, seg_last] {
                          for (int n = first; n <= seg_last; ++n) {
                            NodeManager& nm = *nms_[n];
                            if (nm.can_absorb_periodic()) {
                              nm.absorb_periodic(tc);
                            } else {
                              // State moved between the walk and the
                              // sweep firing (possible only via an
                              // already-pending same-instant event):
                              // fall back to the mailbox.
                              nm.deliver(tc);
                            }
                          }
                        });
    seg_first = -1;
  };
  for (int n = dsts.first; n <= dsts.last(); ++n) {
    if (net_->node_failed(n) || nms_[n]->stopped()) {
      flush(n - 1);
      continue;
    }
    // MM hosts stay on the event-driven path: their dæmon CPUs run
    // coroutines whose wakeups draw from the OS RNG stream in ways the
    // quiescence test cannot bound. Replica hosts count as MM hosts.
    const bool excluded = n == mm_node || n == standby_node ||
                          (repl_ && repl_->rank_of_node(n) > 0);
    if (!excluded && nms_[n]->can_absorb_periodic()) {
      if (seg_first < 0) seg_first = n;
    } else {
      flush(n - 1);
      nms_[n]->deliver(fabric::TracedCommand{msg, ctx});
    }
  }
  flush(dsts.last());
}

Task<> Cluster::multicast_command(fabric::Component from, int src,
                                  net::NodeRange dsts,
                                  fabric::ControlMessage msg,
                                  fabric::TraceContext ctx) {
  co_await fabric_->multicast_command(
      from, msg, src, dsts, kCommandBytes,
      [this](int s, net::NodeRange d, sim::Bytes b) {
        return command_wire(s, d, b);
      },
      [this](net::NodeRange d, const fabric::ControlMessage& m,
             fabric::TraceContext c) { deliver_command(d, m, c); },
      ctx);
}

sim::Channel<int>& Cluster::app_channel(JobId job_id, int inc, int dst,
                                        int src) {
  assert(inc >= 0 && inc < kMaxIncarnations);
  const std::uint64_t key = (static_cast<std::uint64_t>(inc) << 54) |
                            (static_cast<std::uint64_t>(job_id) << 40) |
                            (static_cast<std::uint64_t>(dst) << 20) |
                            static_cast<std::uint64_t>(src);
  auto& slot = app_channels_[key];
  if (!slot) slot = std::make_unique<sim::Channel<int>>(sim_);
  return *slot;
}

void Cluster::wake_job_channels(JobId job_id, int inc) {
  const std::uint64_t hi = (static_cast<std::uint64_t>(inc) << 14) |
                           static_cast<std::uint64_t>(job_id);
  // Deterministic wake order: collect matching keys, then poison in
  // sorted order (the map iteration order is not reproducible).
  std::vector<std::uint64_t> keys;
  for (const auto& [key, ch] : app_channels_) {
    if ((key >> 40) == hi && ch->waiting() > 0) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    sim::Channel<int>& ch = *app_channels_[key];
    for (std::size_t k = ch.waiting(); k > 0; --k) ch.put(-1);
  }
}

Task<> Cluster::app_send(Job& job_, int inc, int src_rank, int dst_rank,
                         sim::Bytes bytes) {
  co_await net_->put(job_.node_of_rank(src_rank), job_.node_of_rank(dst_rank),
                     bytes, net::BufferPlace::MainMemory);
  app_channel(job_.id(), inc, dst_rank, src_rank).put(1);
}

Task<> Cluster::app_recv(Job& job_, int inc, int dst_rank, int src_rank) {
  (void)co_await app_channel(job_.id(), inc, dst_rank, src_rank).get();
}

bool Cluster::app_message_pending(Job& job_, int inc, int dst_rank,
                                  int src_rank) {
  return !app_channel(job_.id(), inc, dst_rank, src_rank).empty();
}

}  // namespace storm::core
