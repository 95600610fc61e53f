#include "workloads.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "core/dolbie.h"
#include "dist/cluster.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"
#include "edge/scenario.h"
#include "exp/transport.h"
#include "ml/cluster.h"
#include "ml/model.h"
#include "net/network.h"
#include "net/reliable.h"
#include "net/socket_delivery.h"
#include "net/transport.h"
#include "probes.h"

namespace perfbench {

using namespace dolbie;

namespace {

/// Rounds for a phase of `seconds` at `per_second` rounds per second,
/// never below what the p90 tail rule needs after the warm-up.
std::size_t scaled_rounds(double per_second, double seconds,
                          std::size_t floor) {
  const double r = std::ceil(per_second * seconds);
  return std::max(floor, static_cast<std::size_t>(r));
}

cpu_set_t one_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

/// The first CPU the calling thread may run on.
int first_allowed_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) return cpu;
  }
  return 0;
}

// --- cost streams ----------------------------------------------------------

/// The paper's batch-size-tuning cluster: ResNet18 on the processor
/// catalogue, affine round costs at a fixed global batch.
class ml_cluster_env final : public exp::environment {
 public:
  ml_cluster_env(std::size_t n, std::uint64_t seed)
      : cluster_(n, ml::model_kind::resnet18, seed) {}
  std::size_t workers() const override { return cluster_.size(); }
  cost::cost_vector next_round() override {
    cluster_.advance_round();
    return cluster_.round_costs(kGlobalBatch);
  }

 private:
  static constexpr double kGlobalBatch = 256.0;
  ml::cluster cluster_;
};

// --- delivery objects ------------------------------------------------------

/// Two in-process channel hosts serving loopback TCP, one thread each.
class channel_hosts {
 public:
  channel_hosts()
      : a_(0), b_(0), serve_a_([this] { a_.run(); }),
        serve_b_([this] { b_.run(); }) {}
  ~channel_hosts() {
    a_.stop();
    b_.stop();
    serve_a_.join();
    serve_b_.join();
  }
  channel_hosts(const channel_hosts&) = delete;
  channel_hosts& operator=(const channel_hosts&) = delete;

  std::vector<net::peer_address> peers() const {
    return {{"127.0.0.1", a_.port()}, {"127.0.0.1", b_.port()}};
  }
  void confine_to(const cpu_set_t& set) {
    pthread_setaffinity_np(serve_a_.native_handle(), sizeof set, &set);
    pthread_setaffinity_np(serve_b_.native_handle(), sizeof set, &set);
  }

 private:
  net::socket_server a_;
  net::socket_server b_;
  std::thread serve_a_;
  std::thread serve_b_;
};

/// A socket_link to channel hosts of its own, for the replay probe: the
/// hosts keep one channel per (from, to) pair for every client, so sharing
/// the engines' hosts would mix the replayed messages into the engines'
/// channels.
struct socket_replay {
  socket_replay(std::size_t nodes, std::size_t workers)
      : link(nodes, owners(nodes, workers), hosts.peers()) {}
  static std::vector<int> owners(std::size_t nodes, std::size_t workers) {
    std::vector<int> owner = dist::block_owner_map(workers, 2);
    owner.resize(nodes, -1);  // an MW master has no host: it is local
    return owner;
  }
  channel_hosts hosts;
  net::socket_link link;
};

// --- workloads ---------------------------------------------------------------

/// Round rates below were sized on a 4-vCPU VM so that a run lasts one to
/// one and a half times --seconds, most of it in the timed pass: the host's
/// speed drifts over tens of seconds, and a longer pass averages more of
/// it. No phase runs fewer rounds than
/// kTailFloor: the p90 needs ten samples beyond it after the warm-up.
constexpr std::size_t kTailFloor = 200;

class edge_workload final : public workload {
 public:
  edge_workload(std::uint64_t seed, double seconds) : seed_(seed) {
    plan_.name = "edge-n30";
    plan_.workers = 30;
    plan_.rounds[0] = scaled_rounds(3000.0, seconds, kTailFloor);
    plan_.rounds[1] = scaled_rounds(1500.0, seconds, kTailFloor);
    plan_.warmup = 200;
    plan_.opt_stride = 100;
    plan_.probe_stride[0] = plan_.probe_stride[1] = 16;
  }
  std::unique_ptr<exp::environment> make_env() const override {
    edge::offloading_options options;
    options.n_servers = plan_.workers - 1;
    return std::make_unique<edge::offloading_environment>(options, seed_);
  }
  std::unique_ptr<core::online_policy> make_engine(engine e) override {
    if (e == engine::mw) {
      return std::make_unique<dist::master_worker_policy>(plan_.workers);
    }
    return std::make_unique<dist::fully_distributed_policy>(plan_.workers);
  }
  std::unique_ptr<core::online_policy> make_reference(engine) override {
    return std::make_unique<core::dolbie_policy>(plan_.workers);
  }
  replay_fn make_replay(engine e) override {
    auto network =
        std::make_shared<net::network>(replay_nodes(e, plan_.workers));
    return [network, e, n = plan_.workers](std::uint64_t round) {
      replay_round(net::direct_delivery{*network}, e, n, round);
    };
  }

 private:
  std::uint64_t seed_;
};

class lossy_workload final : public workload {
 public:
  static constexpr double kDropRate = 0.2;

  lossy_workload(std::uint64_t seed, double seconds) : seed_(seed) {
    plan_.name = "lossy-n30";
    plan_.workers = 30;
    plan_.rounds[0] = scaled_rounds(15000.0, seconds, kTailFloor);
    plan_.rounds[1] = scaled_rounds(2100.0, seconds, kTailFloor);
    plan_.warmup = 200;
    plan_.opt_stride = 4;
    plan_.probe_stride[0] = 64;
    plan_.probe_stride[1] = 8;
    // Two distinct workers: one crash window that recovers, one permanent.
    rng pick(seed ^ 0x6c6f737379ULL);
    recovering_ = static_cast<std::size_t>(pick.uniform_int(0, 29));
    permanent_ = (recovering_ + 1 +
                  static_cast<std::size_t>(pick.uniform_int(0, 28))) % 30;
  }
  std::unique_ptr<exp::environment> make_env() const override {
    return std::make_unique<ml_cluster_env>(plan_.workers, seed_);
  }
  std::unique_ptr<core::online_policy> make_engine(engine e) override {
    const std::size_t rounds = plan_.rounds[static_cast<int>(e)];
    dist::protocol_options options;
    options.faults = fault_plan(rounds);
    if (e == engine::mw) {
      return std::make_unique<dist::master_worker_policy>(plan_.workers,
                                                          options);
    }
    return std::make_unique<dist::fully_distributed_policy>(plan_.workers,
                                                            options);
  }
  std::string check_end(engine e,
                        const core::online_policy& policy) override {
    const auto report = report_of(policy);
    if (report.removed_workers != 1) {
      return std::string(engine_name(e)) + ": " +
             std::to_string(report.removed_workers) +
             " workers retired, expected exactly the permanently crashed one";
    }
    const auto& x = policy.current();
    if (x[permanent_] != 0.0) {
      return std::string(engine_name(e)) + ": crashed worker " +
             std::to_string(permanent_) + " still holds load";
    }
    if (x[recovering_] == 0.0) {
      return std::string(engine_name(e)) + ": recovered worker " +
             std::to_string(recovering_) + " was retired";
    }
    return {};
  }
  /// The replay runs under the workload's drop rate, without crashes.
  replay_fn make_replay(engine e) override {
    struct reliable_replay {
      explicit reliable_replay(std::size_t nodes)
          : network(nodes),
            link(network,
                 {.retry_budget = dist::protocol_options{}.retry_budget}) {}
      net::network network;
      net::reliable_link link;
    };
    auto replay =
        std::make_shared<reliable_replay>(replay_nodes(e, plan_.workers));
    net::fault_plan plan;
    plan.seed = seed_;
    plan.drop_rate = kDropRate;
    replay->network.attach_faults(std::move(plan));
    return [replay, e, n = plan_.workers](std::uint64_t round) {
      replay_round(net::reliable_delivery{replay->link}, e, n, round);
    };
  }

 private:
  /// Drop rate 0.2 (the repository's chaos acceptance point), a crash
  /// window covering 5% of the phase that recovers, and a permanent crash
  /// at mid-phase.
  net::fault_plan fault_plan(std::size_t rounds) const {
    net::fault_plan plan;
    plan.seed = seed_;
    plan.drop_rate = kDropRate;
    const std::uint64_t r = rounds;
    plan.crashes = {{recovering_, r / 4, r / 4 + r / 20},
                    {permanent_, r / 2, net::crash_window::kNever}};
    return plan;
  }

  std::uint64_t seed_;
  std::size_t recovering_ = 0;
  std::size_t permanent_ = 0;
};

/// The lossy-n30 stream without faults, driven over loopback TCP through
/// two in-process channel hosts. The process runs three threads (the
/// main thread and the two hosts), all confined to one CPU at a time:
/// cross-CPU wake-ups on a VM go through the hypervisor, so a socket round
/// trip between threads on different CPUs measures the other tenants as
/// much as the transport. The main thread confines itself before the hosts
/// start, so they inherit the mask, and confine_to moves all three.
class tcp_workload final : public workload {
 public:
  tcp_workload(std::uint64_t seed, double seconds) : seed_(seed) {
    plan_.name = "tcp-n30";
    plan_.workers = 30;
    plan_.rounds[0] = scaled_rounds(175.0, seconds, kTailFloor);
    // FD runs longer than --seconds here: cost/OPT is summed from round 1,
    // and over fewer than about 1000 rounds FD's early transient spreads
    // it by more than 8% from seed to seed.
    plan_.rounds[1] = scaled_rounds(55.0, seconds, kTailFloor);
    plan_.warmup = 20;
    plan_.probe_stride[0] = 16;
    plan_.probe_stride[1] = 8;
    workload::confine_to(first_allowed_cpu());
    hosts_ = std::make_unique<channel_hosts>();
  }

  std::unique_ptr<exp::environment> make_env() const override {
    return std::make_unique<ml_cluster_env>(plan_.workers, seed_);
  }
  std::unique_ptr<core::online_policy> make_engine(engine e) override {
    dist::cluster_options options;
    options.mode = mode(e);
    options.peers = hosts_->peers();
    options.link.receive_timeout = std::chrono::milliseconds(0);
    auto policy = std::make_unique<dist::cluster_policy>(plan_.workers,
                                                         options);
    // A new client's reset frame clears every channel on its hosts, and a
    // host serves its connections in no fixed order, so a reset still
    // queued could wipe another engine's round in flight. One empty pull
    // per host returns only after the host has read everything this
    // client sent before it, the reset included.
    for (const net::node_id on_host : {net::node_id{0}, plan_.workers - 1}) {
      (void)policy->link().receive(on_host, on_host == 0 ? 1 : 0);
    }
    return policy;
  }
  std::unique_ptr<core::online_policy> make_reference(engine e) override {
    exp::transport_spec spec;
    spec.kind = exp::transport_kind::memory;
    spec.mode = mode(e);
    return exp::make_transport_policy(plan_.workers, spec, nullptr);
  }
  replay_fn make_replay(engine e) override {
    auto replay = std::make_shared<socket_replay>(
        replay_nodes(e, plan_.workers), plan_.workers);
    replays_.push_back(replay);  // confine_to moves its hosts too
    return [replay, e, n = plan_.workers](std::uint64_t round) {
      replay_round(net::socket_delivery{replay->link}, e, n, round);
    };
  }
  void confine_to(int cpu) override {
    workload::confine_to(cpu);
    const cpu_set_t set = one_cpu(cpu);
    hosts_->confine_to(set);
    for (const auto& replay : replays_) replay->hosts.confine_to(set);
  }

 private:
  static dist::cluster_mode mode(engine e) {
    return e == engine::mw ? dist::cluster_mode::master_worker
                           : dist::cluster_mode::fully_distributed;
  }

  std::uint64_t seed_;
  std::unique_ptr<channel_hosts> hosts_;
  std::vector<std::shared_ptr<socket_replay>> replays_;
};

}  // namespace

std::unique_ptr<core::online_policy> workload::make_reference(engine) {
  return nullptr;
}

std::string workload::check_end(engine, const core::online_policy&) {
  return {};
}

void workload::confine_to(int cpu) {
  const cpu_set_t set = one_cpu(cpu);
  sched_setaffinity(0, sizeof set, &set);
}

std::unique_ptr<workload> make_workload(std::string_view name,
                                        std::uint64_t seed, double seconds) {
  if (name == "edge-n30") return std::make_unique<edge_workload>(seed, seconds);
  if (name == "lossy-n30") {
    return std::make_unique<lossy_workload>(seed, seconds);
  }
  if (name == "tcp-n30") return std::make_unique<tcp_workload>(seed, seconds);
  return nullptr;
}

dist::fault_report report_of(const core::online_policy& policy) {
  if (auto* p = dynamic_cast<const dist::master_worker_policy*>(&policy)) {
    return p->faults();
  }
  if (auto* p = dynamic_cast<const dist::fully_distributed_policy*>(&policy)) {
    return p->faults();
  }
  if (auto* p = dynamic_cast<const dist::cluster_policy*>(&policy)) {
    return p->faults();
  }
  return {};
}

std::uint64_t round_messages_of(const core::online_policy& policy) {
  if (auto* p = dynamic_cast<const dist::master_worker_policy*>(&policy)) {
    return p->last_round_traffic().messages_sent;
  }
  if (auto* p = dynamic_cast<const dist::fully_distributed_policy*>(&policy)) {
    return p->last_round_traffic().messages_sent;
  }
  return 0;
}

}  // namespace perfbench
