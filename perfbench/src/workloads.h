// The benchmark's three closed-loop workloads. Each one regenerates its cost
// stream from the seed for every engine phase (so MW and FD see the same
// stream), builds the engines under test, and names the reference its
// iterates must match bit for bit. Why each workload exists is recorded in
// perfbench/README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "dist/protocol.h"
#include "exp/scenario.h"

namespace perfbench {

enum class engine { mw, fd };
inline const char* engine_name(engine e) {
  return e == engine::mw ? "mw" : "fd";
}

/// The traced run's replay probe for one engine: pushes one round of the
/// engine's message pattern (probes.h replay_round) through a delivery
/// object of the workload's own kind. The argument is the round.
using replay_fn = std::function<void(std::uint64_t round)>;

struct workload_plan {
  std::string name;
  std::size_t workers = 0;
  /// Rounds per engine phase, indexed by engine; fixed for a given
  /// --seconds, never cut by a clock.
  std::size_t rounds[2] = {0, 0};
  /// Leading rounds of each phase left out of the timings (they still
  /// count for cost/OPT and the checks).
  std::size_t warmup = 0;
  /// OPT is solved on rounds t % opt_stride == 0 (all rounds when 1).
  std::size_t opt_stride = 1;
  /// Traced layer probes run on rounds t % probe_stride[e] == 0.
  std::size_t probe_stride[2] = {1, 1};
};

class workload {
 public:
  virtual ~workload() = default;

  const workload_plan& plan() const { return plan_; }

  /// A fresh cost stream, identical for every call.
  virtual std::unique_ptr<dolbie::exp::environment> make_env() const = 0;
  /// The engine under test for one phase.
  virtual std::unique_ptr<dolbie::core::online_policy> make_engine(
      engine e) = 0;
  /// The engine the phase's iterates must equal bit for bit (null: none).
  virtual std::unique_ptr<dolbie::core::online_policy> make_reference(
      engine e);
  /// End-of-phase check beyond the per-round ones; returns an empty string
  /// when it passes.
  virtual std::string check_end(engine e,
                                const dolbie::core::online_policy& policy);
  /// The replay probe for engine `e`; it owns its delivery object.
  virtual replay_fn make_replay(engine e) = 0;
  /// Confine the calling thread, and any thread the workload runs itself,
  /// to `cpu`. The timed pass runs on one CPU at a time and moves to the
  /// next allowed CPU every few blocks: on a VM each vCPU's speed flips on
  /// its own between a fast and a slow state, so a process left on one
  /// vCPU measures that vCPU's luck; visiting all of them averages it.
  virtual void confine_to(int cpu);

 protected:
  workload_plan plan_;
};

/// Build a workload by name; null for an unknown name. `seconds` scales
/// the per-engine round counts (the run is never time-boxed).
std::unique_ptr<workload> make_workload(std::string_view name,
                                        std::uint64_t seed, double seconds);

/// Counters read through the engines' public accessors.
dolbie::dist::fault_report report_of(
    const dolbie::core::online_policy& policy);
/// Messages sent in the last round by a flat in-memory engine (0 for
/// others).
std::uint64_t round_messages_of(const dolbie::core::online_policy& policy);

}  // namespace perfbench
