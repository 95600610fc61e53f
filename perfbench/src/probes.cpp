#include "probes.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "net/codec.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace perfbench {

using namespace dolbie;

std::uint32_t span_log::open(const char* name, std::uint64_t round) {
  const auto index = static_cast<std::uint32_t>(records_.size());
  record r;
  r.name = name;
  r.parent = open_.empty() ? kNoParent : open_.back();
  r.lane = lane_;
  r.round = round;
  records_.push_back(r);
  open_.push_back(index);
  records_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - epoch_).count();
  return index;
}

void span_log::close(std::uint32_t index) {
  records_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - epoch_).count();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span_log: spans closed out of order");
  }
  open_.pop_back();
}

std::vector<double> span_log::self_us(std::string_view name) const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const record& r : records_) {
    if (r.parent != kNoParent) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const record& r = records_[i];
    if (name != r.name) continue;
    out.push_back(static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) /
                  1e3);
  }
  return out;
}

void span_log::write_chrome_trace(std::ostream& os,
                                  std::uint64_t max_rounds) const {
  std::vector<obs::trace_record> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const record& r = records_[i];
    if (r.round >= max_rounds) continue;
    obs::trace_record t;
    t.round = r.round;
    t.lane = r.lane;
    t.seq = i;
    t.ts = static_cast<double>(r.start_ns) / 1e3;
    t.dur = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
    t.kind = obs::record_kind::span;
    t.name = r.name;
    t.category = "perfbench";
    if (r.parent != kNoParent) {
      t.args.push_back(obs::arg_str("parent", records_[r.parent].name));
    }
    out.push_back(std::move(t));
  }
  obs::export_chrome_trace(os, out);
}

std::size_t codec_round(std::size_t n, std::span<const double> local_costs) {
  using net::message_kind;
  // One message at a time through encode, framing, the stream parser and
  // decode, as a socket link and a channel host pass them.
  net::frame_parser parser;
  std::vector<std::uint8_t> wire;
  std::size_t count = 0;
  const auto pass = [&](const net::message& m) {
    wire.clear();
    net::append_frame(wire, net::encode(m));
    parser.feed(wire.data(), wire.size());
    const std::optional<std::vector<std::uint8_t>> body = parser.next();
    if (!body || net::decode(*body).kind != m.kind) {
      throw std::runtime_error("codec probe lost a frame");
    }
    ++count;
  };
  const net::node_id master = n;
  for (net::node_id i = 0; i < n; ++i) {
    pass({i, master, message_kind::local_cost, {local_costs[i]}});
  }
  for (net::node_id i = 0; i < n; ++i) {
    pass({master, i, message_kind::round_info, {local_costs[0], 0.5, 1.0}});
  }
  for (net::node_id i = 1; i < n; ++i) {
    pass({i, master, message_kind::decision, {local_costs[i]}});
  }
  pass({master, 0, message_kind::assignment, {local_costs[0]}});
  parser.finish();
  return count;
}

tree_probe::tree_probe(std::size_t n_workers)
    : plan_(shard::make_shard_plan(n_workers, {})),
      tree_(plan_, nullptr, 0),
      leaf_max_(plan_.shards()),
      leaf_min_(plan_.shards()),
      contribute_(plan_.shards(), 1),
      live_(plan_.aggregators(), 1),
      reached_(plan_.shards(), 0) {}

void tree_probe::load(std::span<const double> local_costs) {
  const std::size_t n = local_costs.size();
  for (std::size_t k = 0; k < plan_.shards(); ++k) {
    double hi = local_costs[plan_.members[k].front() % n];
    double lo = hi;
    for (const core::worker_id i : plan_.members[k]) {
      hi = std::max(hi, local_costs[i % n]);
      lo = std::min(lo, local_costs[i % n]);
    }
    leaf_max_[k] = hi;
    leaf_min_[k] = lo;
  }
}

shard::reduce_result tree_probe::reduce(std::uint64_t round) {
  return tree_.reduce(round, leaf_max_, leaf_min_, contribute_, live_);
}

void tree_probe::broadcast(std::uint64_t round, double l, double a) {
  tree_.broadcast(round, l, a, live_, reached_);
}

}  // namespace perfbench
