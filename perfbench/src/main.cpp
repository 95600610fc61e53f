// perfbench: the repository benchmark's closed-loop program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// One process runs one workload: it generates the cost stream from the
// seed, then drives the MW and the FD engine through a fixed number of
// rounds each (the next round's costs are revealed only after observe()
// returns), times only the observe() calls, checks every iterate, and
// prints its metrics as the last line of standard output (report.h's
// schema). With --trace 1 the same workload, seed and round counts run
// again with spans around calls into each layer's public functions; the
// per-layer numbers come from that run. run.py builds this program and
// turns its output into the benchmark's result line.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "baselines/opt.h"
#include "common/simplex.h"
#include "core/dolbie.h"
#include "core/max_acceptable.h"
#include "dist/cluster.h"
#include "dist/fully_distributed.h"
#include "dist/master_worker.h"
#include "probes.h"
#include "report.h"
#include "shard/hierarchical_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dolbie;
using clock_type = std::chrono::steady_clock;

/// Blocks per engine in the interleaved timed pass.
constexpr std::size_t kBlocks = 100;
/// Every kStayBlocks-th block of the timed pass starts with a set-up
/// sample and a move to the next allowed CPU, so the samples and the stays
/// span the whole pass and every CPU.
constexpr std::size_t kStayBlocks = 4;
constexpr double kTailPercentile = 90.0;
constexpr std::uint64_t kTraceFileRounds = 64;

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    key = key.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for --" + key);
    }
    kv[key] = value;
  }
  options o;
  try {
    for (const auto& [key, value] : kv) {
      std::size_t used = 0;
      if (key == "workload") {
        o.workload = value;
      } else if (key == "seed") {
        o.seed = std::stoull(value, &used);
      } else if (key == "seconds") {
        o.seconds = std::stod(value, &used);
      } else if (key == "trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag --" + key);
      }
      if (used != 0 && used != value.size()) usage("bad value for --" + key);
    }
  } catch (const std::logic_error&) {
    usage("unparsable number");
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds in (0, 600]");
  return o;
}

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Jiffies from the aggregate "cpu" line of /proc/stat: {steal, total}.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0.0, 0.0};
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 10; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    if (field < 8) total += v;  // guest time is already inside user time
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// The process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss is not used: it carries over the parent's figure across
/// exec, so under a Python launcher it reports the interpreter's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "<n> kB"
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

bool finite_on_simplex(const core::allocation& x) {
  for (const double v : x) {
    if (!std::isfinite(v)) return false;
  }
  return on_simplex(x);
}

bool bit_equal(const core::allocation& a, const core::allocation& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// OPT and EQU on the sampled rounds (t % stride == 0) of the stream,
/// solved in a pass of their own so that no solve runs between two timed
/// rounds and evicts the engine's data from the caches.
struct quality_table {
  std::size_t stride = 1;
  std::vector<double> opt, equ;  // indexed by t / stride
};

quality_table solve_quality(const workload& w, std::size_t rounds) {
  quality_table q;
  q.stride = w.plan().opt_stride;
  std::unique_ptr<exp::environment> env = w.make_env();
  cost::cost_view view;
  for (std::size_t t = 0; t < rounds; ++t) {
    const cost::cost_vector costs = env->next_round();
    if (t % q.stride != 0) continue;
    cost::view_into(costs, view);
    q.opt.push_back(baselines::solve_instantaneous(view).value);
    const double share = 1.0 / static_cast<double>(view.size());
    double equ = 0.0;
    for (const cost::cost_function* f : view) {
      equ = std::max(equ, f->value(share));
    }
    q.equ.push_back(equ);
  }
  return q;
}

/// 64-bit FNV-1a digest of an iterate's bytes: the timed pass keeps one
/// per round and the reference pass must reproduce each one.
std::uint64_t digest(const core::allocation& x) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Drive `policy` closed-loop through `rounds` rounds of a fresh copy of
/// the stream, untimed; `after(t)` runs after each observe(), and a span
/// named `span` wraps each observe() when `log` is set.
template <class After>
void drive(const workload& w, core::online_policy& policy, std::size_t rounds,
           span_log* log, const char* span, After&& after) {
  std::unique_ptr<exp::environment> env = w.make_env();
  cost::cost_view view;
  std::vector<double> locals;
  for (std::size_t t = 0; t < rounds; ++t) {
    const cost::cost_vector costs = env->next_round();
    cost::view_into(costs, view);
    cost::evaluate_into(view, policy.current(), locals);
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    {
      scoped_span s(log, span, t);
      policy.observe(fb);
    }
    if (!after(t)) return;
  }
}

/// Per-node traffic of a flat engine's network. The clean path zeroes its
/// counters at the start of every round and the faulty path accumulates,
/// so the meter sums per-round values in both cases.
class node_meter {
 public:
  void sample(const net::network& net) {
    const bool cumulative = net.faults().enabled();
    const std::size_t n = net.nodes();
    msgs_.resize(n, 0);
    bytes_.resize(n, 0);
    last_msgs_.resize(n, 0);
    last_bytes_.resize(n, 0);
    for (std::size_t id = 0; id < n; ++id) {
      const std::uint64_t m = net.peer_messages_sent(id);
      const std::uint64_t b = net.peer_bytes_sent(id);
      msgs_[id] += cumulative ? m - last_msgs_[id] : m;
      bytes_[id] += cumulative ? b - last_bytes_[id] : b;
      last_msgs_[id] = m;
      last_bytes_[id] = b;
    }
  }
  std::uint64_t max_msgs() const { return max_of(msgs_); }
  std::uint64_t max_bytes() const { return max_of(bytes_); }

 private:
  static std::uint64_t max_of(const std::vector<std::uint64_t>& v) {
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  }
  std::vector<std::uint64_t> msgs_, bytes_, last_msgs_, last_bytes_;
};

const net::network* flat_network(core::online_policy& policy) {
  if (auto* p = dynamic_cast<dist::master_worker_policy*>(&policy)) {
    return &p->transport();
  }
  if (auto* p = dynamic_cast<dist::fully_distributed_policy*>(&policy)) {
    return &p->transport();
  }
  return nullptr;
}

struct phase_result {
  engine e = engine::mw;
  std::size_t rounds = 0;
  std::size_t failed = 0;
  std::string failure;  // first failed check, for the report
  std::vector<double> observe_us;
  /// Iterate digest per round; kept only when a reference will check them.
  std::vector<std::uint64_t> digests;
  double timed_pass_s = 0.0;
  double sum_cost = 0.0, sum_opt = 0.0, sum_equ = 0.0;
  dist::fault_report report;
  // Traced run only.
  std::uint64_t allocs = 0;
  double cpu_us = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t max_node_msgs = 0, max_node_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t pulls = 0, useful_pulls = 0;
  bool node_traffic_from_reference = false;  // a cluster: see check_reference

  void fail(std::size_t t, const std::string& why) {
    ++failed;
    if (failure.empty()) {
      failure = std::string(engine_name(e)) + " round " + std::to_string(t) +
                ": " + why;
    }
  }
};

/// Layer probes of the traced run, fed the round's data outside observe().
struct layer_probes {
  layer_probes() : tree(kShardProbeWorkers) {}
  std::vector<double> xp;
  cost::batch_evaluator batch;
  tree_probe tree;
  std::vector<double> codec_ns_per_msg;
  std::uint64_t tree_msgs = 0;
  std::size_t tree_rounds = 0;
};

struct traced {
  span_log* log = nullptr;
  layer_probes* probes = nullptr;
};

/// What a run builds before round 1: the stream and both engines. Built
/// between two blocks of the timed pass, while the timed engines are idle.
void build_setup(workload& w) {
  auto env = w.make_env();
  auto mw = w.make_engine(engine::mw);
  auto fd = w.make_engine(engine::fd);
}

const char* observe_span(engine e) {
  return e == engine::mw ? "mw.observe" : "fd.observe";
}
const char* replay_span(engine e) {
  return e == engine::mw ? "mw.net.replay" : "fd.net.replay";
}

/// One engine's closed loop in the timed pass. Between two of its rounds
/// only the other engine's rounds run, never a solve or a reference.
class engine_loop {
 public:
  /// `keep_digests`: a reference pass will check this phase's iterates.
  engine_loop(workload& w, engine e, traced tr, bool keep_digests)
      : w_(w), plan_(w.plan()), e_(e), tr_(tr),
        policy_(w.make_engine(e)),
        cluster_(dynamic_cast<dist::cluster_policy*>(policy_.get())),
        env_(w.make_env()),
        link0_(cluster_ ? cluster_->link_stats() : net::socket_link_stats{}) {
    out_.e = e;
    out_.rounds = plan_.rounds[static_cast<int>(e)];
    out_.observe_us.reserve(out_.rounds);
    if (keep_digests) out_.digests.resize(out_.rounds);
    link_msgs_before_ = link0_.messages_sent;
    if (tr_.log != nullptr) replay_ = w.make_replay(e);
  }

  void step(std::size_t t);
  /// Leave the next round out of the timings: a set-up sample just evicted
  /// the engine's data from the caches.
  void skip_next_timing() { skip_timing_ = true; }
  /// End-of-phase checks and counters; destroys the engine.
  phase_result finish();

 private:
  void probe(std::size_t t, std::size_t straggler, double l_t);

  workload& w_;
  const workload_plan& plan_;
  engine e_;
  traced tr_;
  std::unique_ptr<core::online_policy> policy_;
  dist::cluster_policy* cluster_;
  std::unique_ptr<exp::environment> env_;
  replay_fn replay_;
  net::socket_link_stats link0_;  // the cluster's link before round 1
  node_meter nodes_;
  cost::cost_view view_;
  std::vector<double> locals_;
  std::size_t aborted_before_ = 0;
  std::uint64_t link_msgs_before_ = 0;  // the cluster's, after a round
  bool skip_timing_ = false;
  phase_result out_;
};

void engine_loop::step(std::size_t t) {
  span_log* log = tr_.log;
  scoped_span round_span(log, "round", t);
  cost::cost_vector costs;
  {
    scoped_span s(log, "env", t);
    costs = env_->next_round();
    cost::view_into(costs, view_);
    cost::evaluate_into(view_, policy_->current(), locals_);
  }
  const std::size_t straggler = argmax(locals_);
  // l_t on the rounds OPT was solved for (run_phases adds OPT and EQU).
  if (t % plan_.opt_stride == 0) out_.sum_cost += locals_[straggler];
  // A probe runs on the round's data before observe(). It evicts the
  // engine's data from the caches (and on tcp-n30 wakes the replay's
  // channel hosts), so the round it runs on is left out of the timings.
  const bool probed =
      log != nullptr && t % plan_.probe_stride[static_cast<int>(e_)] == 0;
  if (probed) probe(t, straggler, locals_[straggler]);

  core::round_feedback fb;
  fb.costs = &view_;
  fb.local_costs = locals_;
  const bool timed = t >= plan_.warmup && !skip_timing_ && !probed;
  skip_timing_ = false;
  if (log == nullptr) {
    const auto t0 = clock_type::now();
    policy_->observe(fb);
    const auto t1 = clock_type::now();
    if (timed) out_.observe_us.push_back(seconds_between(t0, t1) * 1e6);
  } else {
    const double cpu0 = process_cpu_us();
    const std::uint64_t a0 = allocations();
    set_alloc_counting(true);
    std::uint32_t span = 0;
    {
      scoped_span s(log, observe_span(e_), t);
      span = static_cast<std::uint32_t>(log->records().size() - 1);
      policy_->observe(fb);
    }
    set_alloc_counting(false);
    const std::uint64_t a1 = allocations();
    const double cpu1 = process_cpu_us();
    if (timed) {
      const span_log::record& r = log->records()[span];
      out_.allocs += a1 - a0;
      out_.cpu_us += cpu1 - cpu0;
      out_.observe_us.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                                1e3);
    }
  }

  // Checks and counters, outside every timer.
  if (!finite_on_simplex(policy_->current())) {
    out_.fail(t, "iterate not finite or off the simplex");
  }
  if (!out_.digests.empty()) out_.digests[t] = digest(policy_->current());
  const std::size_t aborted = report_of(*policy_).aborted_rounds;
  if (aborted != aborted_before_) {
    out_.fail(t, "round aborted");
    aborted_before_ = aborted;
  }
  if (log != nullptr) {
    if (cluster_ != nullptr) {
      const std::uint64_t now = cluster_->link_stats().messages_sent;
      out_.msgs += now - link_msgs_before_;
      link_msgs_before_ = now;
    } else {
      out_.msgs += round_messages_of(*policy_);
      if (const net::network* net = flat_network(*policy_)) {
        nodes_.sample(*net);
      }
    }
  }
}

void engine_loop::probe(std::size_t t, std::size_t straggler, double l_t) {
  span_log* log = tr_.log;
  layer_probes& p = *tr_.probes;
  if (e_ == engine::mw) {
    {
      scoped_span s(log, "cost.eq4_scalar", t);
      core::max_acceptable_vector_into(view_, policy_->current(), l_t,
                                       straggler, p.xp);
    }
    {
      scoped_span s(log, "cost.eq4_batch", t);
      p.batch.rebind(view_);
      core::max_acceptable_vector_into(p.batch, policy_->current(), l_t,
                                       straggler, p.xp);
    }
    const auto c0 = clock_type::now();
    std::size_t coded = 0;
    {
      scoped_span s(log, "net.codec", t);
      coded = codec_round(plan_.workers, locals_);
    }
    p.codec_ns_per_msg.push_back(seconds_between(c0, clock_type::now()) *
                                 1e9 / static_cast<double>(coded));
    p.tree.load(locals_);
    const std::uint64_t tree0 = p.tree.messages();
    shard::reduce_result r;
    {
      scoped_span s(log, "shard.reduce", t);
      r = p.tree.reduce(t);
    }
    {
      scoped_span s(log, "shard.broadcast", t);
      p.tree.broadcast(t, r.max_value, r.min_value);
    }
    p.tree_msgs += p.tree.messages() - tree0;
    ++p.tree_rounds;
  }
  scoped_span s(log, replay_span(e_), t);
  replay_(t);
}

phase_result engine_loop::finish() {
  if (std::string why = w_.check_end(e_, *policy_); !why.empty()) {
    out_.fail(out_.rounds, why);
  }
  out_.report = report_of(*policy_);
  if (tr_.log != nullptr) {
    if (cluster_ != nullptr) {
      const net::socket_link_stats& now = cluster_->link_stats();
      out_.frames = now.frames_sent - link0_.frames_sent;
      out_.pulls = now.pulls - link0_.pulls;
      out_.useful_pulls =
          out_.pulls - (now.empty_pulls - link0_.empty_pulls);
    }
    if (cluster_ == nullptr) {
      out_.max_node_msgs = nodes_.max_msgs();
      out_.max_node_bytes = nodes_.max_bytes();
    } else {
      out_.node_traffic_from_reference = true;
    }
  }
  policy_.reset();
  return std::move(out_);
}

/// The reference pass: the reference's iterates must reproduce every
/// digest of the timed pass.
void check_reference(workload& w, core::online_policy* reference,
                     phase_result& out) {
  if (reference == nullptr) return;
  const bool cluster = out.node_traffic_from_reference;
  node_meter nodes;
  drive(w, *reference, out.rounds, nullptr, nullptr, [&](std::size_t t) {
    // A cluster's per-node traffic is its in-memory twin's: the round
    // machines are the same and the twin's iterates are bit-equal.
    if (cluster) {
      if (const net::network* net = flat_network(*reference)) {
        nodes.sample(*net);
      }
    }
    if (digest(reference->current()) == out.digests[t]) return true;
    out.fail(t, "iterate differs from the reference " +
                    std::string(reference->name()));
    return false;
  });
  if (cluster) {
    out.max_node_msgs = nodes.max_msgs();
    out.max_node_bytes = nodes.max_bytes();
  }
}

/// Both engines' phases: the timed pass interleaves them in blocks, so
/// each engine's samples span the whole pass and see the same host; then
/// the reference, sequential-policy and quality sums, untimed.
std::vector<phase_result> run_phases(workload& w, const quality_table& quality,
                                     traced tr, setup_timer* setup,
                                     const std::vector<int>& cpus) {
  const workload_plan& plan = w.plan();
  std::unique_ptr<core::online_policy> references[2] = {
      w.make_reference(engine::mw), w.make_reference(engine::fd)};
  const auto pass0 = clock_type::now();
  std::vector<phase_result> out;
  {
    engine_loop loops[2] = {{w, engine::mw, tr, references[0] != nullptr},
                            {w, engine::fd, tr, references[1] != nullptr}};
    for (std::size_t b = 0; b < kBlocks; ++b) {
      if (b % kStayBlocks == 0) {
        // Sampled before the move: right after it, the caches are cold and
        // the channel hosts are still being woken on the CPU they left.
        if (setup != nullptr) setup->sample([&] { build_setup(w); });
        w.confine_to(cpus[(b / kStayBlocks) % cpus.size()]);
        // Both leave the engines' data out of the caches; on tcp-n30 the
        // first round on a new CPU also pays for waking the hosts there.
        for (engine_loop& loop : loops) loop.skip_next_timing();
      }
      for (int e = 0; e < 2; ++e) {
        if (tr.log != nullptr) tr.log->set_lane(static_cast<std::uint32_t>(e));
        const std::size_t r = plan.rounds[e];
        for (std::size_t t = b * r / kBlocks; t < (b + 1) * r / kBlocks; ++t) {
          loops[e].step(t);
        }
      }
    }
    out.push_back(loops[0].finish());
    out.push_back(loops[1].finish());
  }
  const double pass_s = seconds_between(pass0, clock_type::now());
  for (phase_result& ph : out) {
    ph.timed_pass_s = pass_s;
    check_reference(w, references[static_cast<int>(ph.e)].get(), ph);
    if (tr.log != nullptr && ph.e == engine::mw) {
      // The sequential policy on the same stream: the core layer's floor.
      core::dolbie_policy seq(plan.workers);
      tr.log->set_lane(2);
      drive(w, seq, ph.rounds, tr.log, "core.observe",
            [](std::size_t) { return true; });
    }
    for (std::size_t t = 0; t < ph.rounds; t += quality.stride) {
      ph.sum_opt += quality.opt[t / quality.stride];
      ph.sum_equ += quality.equ[t / quality.stride];
    }
  }
  return out;
}

/// The pool's effect at rack scale: the hierarchical engine (default plan)
/// over kShardProbeWorkers workers at width 1 and at width kPoolWidth, fed
/// the workload's stream tiled over the workers and driven in lockstep so
/// host-speed drift hits both alike; their iterates must be bit-equal
/// every round. The round counts are fixed; the first kPoolWarmup rounds
/// of each are left out of the timings.
constexpr std::size_t kPoolWidth = 4;
constexpr std::size_t kPoolRounds[2] = {60, 14};  // indexed by engine
constexpr std::size_t kPoolWarmup = 2;

struct pool_result {
  double speedup = 0.0;
  std::size_t samples = 0;  // timed rounds per width
  std::size_t failed = 0;
  std::string failure;
};

pool_result run_pool_phase(const workload& w, engine e) {
  const auto make = [&](std::size_t width) {
    shard::hierarchical_options options;
    options.mode = e == engine::mw ? shard::shard_protocol::master_worker
                                   : shard::shard_protocol::fully_distributed;
    options.threads = width;
    return std::make_unique<shard::hierarchical_engine>(kShardProbeWorkers,
                                                        options);
  };
  auto serial = make(1);
  auto pooled = make(kPoolWidth);
  std::unique_ptr<exp::environment> env = w.make_env();
  cost::cost_view round_view;
  cost::cost_view view(kShardProbeWorkers);
  std::vector<double> locals;
  std::vector<double> us1, us4;
  pool_result out;
  for (std::size_t t = 0; t < kPoolRounds[static_cast<int>(e)]; ++t) {
    const cost::cost_vector costs = env->next_round();
    cost::view_into(costs, round_view);
    for (std::size_t i = 0; i < view.size(); ++i) {
      view[i] = round_view[i % round_view.size()];
    }
    cost::evaluate_into(view, serial->current(), locals);
    core::round_feedback fb;
    fb.costs = &view;
    fb.local_costs = locals;
    const auto t0 = clock_type::now();
    serial->observe(fb);
    const auto t1 = clock_type::now();
    pooled->observe(fb);
    const auto t2 = clock_type::now();
    if (t >= kPoolWarmup) {
      us1.push_back(seconds_between(t0, t1));
      us4.push_back(seconds_between(t1, t2));
    }
    if (!bit_equal(serial->current(), pooled->current()) ||
        !finite_on_simplex(pooled->current())) {
      ++out.failed;
      if (out.failure.empty()) {
        out.failure = std::string(engine_name(e)) + " pool round " +
                      std::to_string(t) + ": width 1 and width " +
                      std::to_string(kPoolWidth) + " iterates differ";
      }
      break;
    }
  }
  out.speedup = us1.empty() ? 0.0 : median(us1) / median(us4);
  out.samples = us1.size();
  return out;
}

double per_round(double total, std::size_t rounds) {
  return total / static_cast<double>(rounds);
}

/// The CPUs in `set`, ascending.
std::vector<int> cpus_of(const cpu_set_t& set) {
  std::vector<int> out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

int run(const options& o) {
  cpu_set_t initial_cpus;
  CPU_ZERO(&initial_cpus);
  sched_getaffinity(0, sizeof initial_cpus, &initial_cpus);
  const auto steal0 = cpu_jiffies();

  std::unique_ptr<workload> w = make_workload(o.workload, o.seed, o.seconds);
  if (w == nullptr) usage("unknown workload " + o.workload);
  const workload_plan& plan = w->plan();
  const std::vector<int> cpus = cpus_of(initial_cpus);
  const std::string cpu_note =
      "one at a time, rotating over " + std::to_string(cpus.size());

  setup_timer setup;
  const auto q0 = clock_type::now();
  const quality_table quality =
      solve_quality(*w, std::max(plan.rounds[0], plan.rounds[1]));
  const double quality_s = seconds_between(q0, clock_type::now());
  std::unique_ptr<span_log> log;
  std::unique_ptr<layer_probes> probes;
  if (o.trace) {
    std::size_t reserve = 0;
    for (const std::size_t r : plan.rounds) reserve += 8 * r;
    log = std::make_unique<span_log>(reserve);
    probes = std::make_unique<layer_probes>();
  }
  const double rss_before_pass_mb = peak_rss_mb();
  std::vector<phase_result> phases =
      run_phases(*w, quality, {log.get(), probes.get()},
                 o.trace ? nullptr : &setup, cpus);
  std::vector<pool_result> pools;
  if (o.trace) {
    // The pool phases measure what the pool buys on all CPUs, whatever
    // confinement the workload's own engines run under.
    sched_setaffinity(0, sizeof initial_cpus, &initial_cpus);
    for (const engine e : {engine::mw, engine::fd}) {
      pools.push_back(run_pool_phase(*w, e));
    }
  }
  const auto steal1 = cpu_jiffies();
  const double jiffies = steal1.second - steal0.second;
  const double steal_share =
      jiffies > 0.0 ? (steal1.first - steal0.first) / jiffies : 0.0;

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const phase_result& p : phases) {
    attempted += p.rounds;
    failed += p.failed;
    if (!p.failure.empty()) failures.push_back(p.failure);
  }
  for (const pool_result& p : pools) {
    failed += p.failed;
    if (!p.failure.empty()) failures.push_back(p.failure);
  }

  std::vector<metric> metrics;
  std::ostringstream samples;
  const auto add = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  // The report line's sample count of every timed metric.
  const auto count = [&](const std::string& name, std::size_t n) {
    samples << (samples.tellp() > 0 ? ", " : "") << '"' << name
            << "\": " << n;
  };
  const auto counted_median = [&](const std::string& name,
                                  const std::vector<double>& values) {
    count(name, values.size());
    return median(values);
  };
  const auto tail_ok = [&](const std::string& name, std::size_t n) {
    count(name, n);
    if (n < min_samples_for_tail(kTailPercentile)) {
      failures.push_back(name + ": " + std::to_string(n) +
                         " samples leave fewer than 10 beyond p90");
      ++failed;
      return false;
    }
    return true;
  };

  if (!o.trace) {
    for (const phase_result& p : phases) {
      const std::string e = engine_name(p.e);
      if (!tail_ok(e + ".round_us", p.observe_us.size())) continue;
      add(e + ".round_us_p50", median(p.observe_us), "us");
      add(e + ".round_us_p90", percentile(p.observe_us, kTailPercentile),
          "us");
    }
    for (const phase_result& p : phases) {
      add(std::string(engine_name(p.e)) + ".cost_over_opt",
          p.sum_cost / p.sum_opt, "ratio");
    }
    count("setup_s", setup.samples());
    add("setup_s", setup.median_seconds(), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const layer_probes& p = *probes;
    const auto span_median = [&](const std::string& name, const char* span) {
      return counted_median(name, log->self_us(span));
    };
    add("env.round_us", span_median("env.round_us", "env"), "us");
    add("cost.eq4_scalar_us",
        span_median("cost.eq4_scalar_us", "cost.eq4_scalar"), "us");
    add("cost.eq4_batch_us",
        span_median("cost.eq4_batch_us", "cost.eq4_batch"), "us");
    add("core.seq_round_us", span_median("core.seq_round_us", "core.observe"),
        "us");
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const phase_result& ph = phases[i];
      const std::string e = engine_name(ph.e);
      const std::size_t timed = ph.observe_us.size();
      const double r = static_cast<double>(ph.rounds);
      tail_ok(e + ".traced_round_us", timed);
      add(e + ".obs.traced_round_us_p50", median(ph.observe_us), "us");
      add(e + ".dist.allocs_per_round",
          per_round(static_cast<double>(ph.allocs), timed), "count");
      add(e + ".dist.cpu_us_per_round", per_round(ph.cpu_us, timed), "us");
      add(e + ".dist.degraded_round_share",
          static_cast<double>(ph.report.degraded_rounds) / r, "ratio");
      add(e + ".dist.holds_per_round",
          static_cast<double>(ph.report.zero_step_holds) / r, "count");
      add(e + ".dist.failovers",
          static_cast<double>(ph.report.straggler_failovers), "count");
      add(e + ".net.msgs_per_round", static_cast<double>(ph.msgs) / r,
          "count");
      add(e + ".net.max_node_msgs_per_round",
          static_cast<double>(ph.max_node_msgs) / r, "count");
      add(e + ".net.max_node_bytes_per_round",
          static_cast<double>(ph.max_node_bytes) / r, "B");
      add(e + ".net.retransmits_per_round",
          static_cast<double>(ph.report.retransmits) / r, "count");
      add(e + ".net.timeouts_per_round",
          static_cast<double>(ph.report.timeouts) / r, "count");
      const double yield =
          ph.pulls > 0
              ? static_cast<double>(ph.useful_pulls) /
                    static_cast<double>(ph.pulls)
              : 1.0 - static_cast<double>(ph.report.retransmits) /
                          static_cast<double>(ph.msgs);
      add(e + ".net.delivery_yield", yield, "ratio");
      add(e + ".net.replay_us",
          span_median(e + ".net.replay_us", replay_span(ph.e)), "us");
      add(e + ".net.frames_per_round", static_cast<double>(ph.frames) / r,
          "count");
      count(e + ".shard.pool_speedup", pools[i].samples);
      add(e + ".shard.pool_speedup", pools[i].speedup, "ratio");
    }
    add("net.codec_ns_per_msg",
        counted_median("net.codec_ns_per_msg", p.codec_ns_per_msg), "ns");
    add("shard.reduce_us", span_median("shard.reduce_us", "shard.reduce"),
        "us");
    add("shard.broadcast_us",
        span_median("shard.broadcast_us", "shard.broadcast"), "us");
    add("shard.tree_msgs_per_round",
        per_round(static_cast<double>(p.tree_msgs), p.tree_rounds), "count");
    add("quality.equ_over_opt", phases[0].sum_equ / phases[0].sum_opt,
        "ratio");
    add("host.steal_share", steal_share, "ratio");
    add("host.hardware_threads",
        static_cast<double>(std::thread::hardware_concurrency()), "count");
    if (!o.trace_out.empty()) {
      std::ofstream file(o.trace_out);
      log->write_chrome_trace(file, kTraceFileRounds);
      if (!file) failures.push_back("could not write " + o.trace_out);
    }
  }

  const bool correct = failures.empty();
  std::cout << "perfbench-report {\"workload\": \"" << plan.name
            << "\", \"seed\": " << o.seed << ", \"trace\": " << o.trace
            << ", \"rounds\": {\"mw\": " << plan.rounds[0]
            << ", \"fd\": " << plan.rounds[1] << "}, \"warmup\": "
            << plan.warmup << ", \"samples\": {" << samples.str()
            << "}, \"host\": {\"hardware_threads\": "
            << std::thread::hardware_concurrency()
            << ", \"steal_share\": " << json_number(steal_share)
            << ", \"cpus\": \"" << cpu_note << "\", \"pool_width\": 1"
            << "}, \"shard_probes\": {\"workers\": " << kShardProbeWorkers
            << ", \"pool_widths\": [1, " << kPoolWidth
            << "], \"pool_rounds\": {\"mw\": " << kPoolRounds[0]
            << ", \"fd\": " << kPoolRounds[1]
            << "}}, \"opt_pass_s\": " << json_number(quality_s)
            << ", \"timed_pass_s\": " << json_number(phases[0].timed_pass_s)
            << ", \"peak_rss_before_pass_mb\": "
            << json_number(rss_before_pass_mb)
            << ", \"failed_round_share\": "
            << json_number(static_cast<double>(failed) /
                           static_cast<double>(attempted))
            << "}\n";
  for (const std::string& f : failures) std::cout << "perfbench-failure " << f << '\n';
  std::cout << result_json(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 3;
  }
}
