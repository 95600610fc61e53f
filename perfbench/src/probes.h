// The traced run's instruments: an in-memory span log (name, start, end,
// parent; the round index is the span id) written out at exit, and the
// layer probes that call each layer's public functions directly on the
// round's data.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "cost/batch.h"
#include "cost/cost_function.h"
#include "net/message.h"
#include "shard/plan.h"
#include "shard/reduction_tree.h"
#include "workloads.h"

namespace perfbench {

class span_log {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct record {
    const char* name = nullptr;  ///< a string literal
    std::uint32_t parent = kNoParent;
    std::uint32_t lane = 0;
    std::uint64_t round = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Reserving up front keeps the log from allocating while it records.
  explicit span_log(std::size_t reserve) {
    records_.reserve(reserve);
    open_.reserve(16);
  }

  /// Open a span under the innermost open one; returns its index.
  std::uint32_t open(const char* name, std::uint64_t round);
  void close(std::uint32_t index);

  const std::vector<record>& records() const { return records_; }

  /// Self time (span minus the time its child spans cover) of every span
  /// named `name`, in microseconds, in recording order.
  std::vector<double> self_us(std::string_view name) const;

  /// Chrome-trace JSON of the spans of rounds below `max_rounds`, one
  /// trace lane per phase.
  void write_chrome_trace(std::ostream& os, std::uint64_t max_rounds) const;

  /// The phase every subsequent span belongs to (one trace lane each).
  void set_lane(std::uint32_t lane) { lane_ = lane; }

 private:
  std::vector<record> records_;
  std::vector<std::uint32_t> open_;
  std::uint32_t lane_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span on a log (no-op when the log is null, as in untraced runs).
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, std::uint64_t round)
      : log_(log), index_(log ? log->open(name, round) : 0) {}
  ~scoped_span() {
    if (log_ != nullptr) log_->close(index_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log* log_;
  std::uint32_t index_;
};

/// Push one round of engine `e`'s message pattern among `n` workers (MW
/// adds a master node) through `delivery`, a policy of net/transport.h's
/// delivery concept: a phase's sends first, then its receives, as the
/// engines do. A receive that yields nothing (a reliable link past its
/// retry budget) is timed all the same.
template <class Delivery>
void replay_round(Delivery delivery, engine e, std::size_t n,
                         std::uint64_t round) {
  using dolbie::net::message_kind;
  using dolbie::net::node_id;
  delivery.begin_round(round);
  const node_id straggler = 0;
  if (e == engine::mw) {
    const node_id master = n;
    for (node_id i = 0; i < n; ++i) {
      delivery.send({i, master, message_kind::local_cost, {1.0}});
    }
    for (node_id i = 0; i < n; ++i) (void)delivery.receive(master, i);
    for (node_id i = 0; i < n; ++i) {
      delivery.send({master, i, message_kind::round_info, {1.0, 0.5, 1.0}});
    }
    for (node_id i = 0; i < n; ++i) (void)delivery.receive(i, master);
    for (node_id i = 1; i < n; ++i) {
      delivery.send({i, master, message_kind::decision, {0.5}});
    }
    for (node_id i = 1; i < n; ++i) (void)delivery.receive(master, i);
    delivery.send({master, straggler, message_kind::assignment, {0.5}});
    (void)delivery.receive(straggler, master);
    return;
  }
  for (node_id i = 0; i < n; ++i) {
    for (node_id j = 0; j < n; ++j) {
      if (i != j) {
        delivery.send({i, j, message_kind::cost_and_step, {1.0, 0.5}});
      }
    }
  }
  for (node_id j = 0; j < n; ++j) {
    for (node_id i = 0; i < n; ++i) {
      if (i != j) (void)delivery.receive(j, i);
    }
  }
  for (node_id i = 1; i < n; ++i) {
    delivery.send({i, straggler, message_kind::decision, {0.5}});
  }
  for (node_id i = 1; i < n; ++i) (void)delivery.receive(straggler, i);
}

/// Nodes of the replayed pattern (MW: workers + master).
inline std::size_t replay_nodes(engine e, std::size_t n) {
  return e == engine::mw ? n + 1 : n;
}

/// One MW round's messages of `n` workers through encode, append_frame,
/// frame_parser and decode, one message at a time as a socket link and a
/// channel host handle them; returns the message count (the caller times
/// the call).
std::size_t codec_round(std::size_t n, std::span<const double> local_costs);

/// Workers of the shard layer's probes: the rack scale the hierarchical
/// engine exists for. The probes feed it the workload's round tiled over
/// this many workers (worker i takes the round's worker i mod N).
constexpr std::size_t kShardProbeWorkers = 10000;

/// A standalone reduction tree over make_shard_plan(n_workers), fed one
/// round's leaf summaries (per-shard max and min local cost).
class tree_probe {
 public:
  explicit tree_probe(std::size_t n_workers);
  /// Fold the leaf summaries (computed outside any span) for a round whose
  /// local costs are `local_costs` tiled over the tree's workers.
  void load(std::span<const double> local_costs);
  dolbie::shard::reduce_result reduce(std::uint64_t round);
  void broadcast(std::uint64_t round, double l, double a);
  std::uint64_t messages() const { return tree_.traffic().messages_sent; }

 private:
  dolbie::shard::shard_plan plan_;
  dolbie::shard::reduction_tree tree_;
  std::vector<double> leaf_max_, leaf_min_;
  std::vector<std::uint8_t> contribute_, live_, reached_;
};

}  // namespace perfbench
