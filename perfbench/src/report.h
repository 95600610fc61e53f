// Statistics and output helpers of the benchmark program: the percentile
// rules its timings follow, the median-of-constructions set-up timer, and
// the metric naming and JSON result schema that run.py checks.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `samples`; the input is
/// copied and sorted. Throws std::invalid_argument on an empty input.
double percentile(std::vector<double> samples, double p);

/// Median (the 50th nearest-rank percentile, averaged for even sizes).
double median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make it a single-sample statistic that does not repeat.
constexpr std::size_t kTailSamplesBeyond = 10;

/// Smallest sample count whose p-th percentile keeps kTailSamplesBeyond
/// samples beyond it.
std::size_t min_samples_for_tail(double p);

/// Set-up time as the median of several fresh constructions. A run takes
/// its samples at points spread over its whole length: the first one pays
/// page faults and lazy initialisation that later ones do not, and the
/// host's speed drifts on a scale of seconds, so one burst of samples
/// would measure a single moment of the host.
class setup_timer {
 public:
  /// Time one call of `build`, which constructs and destroys whatever the
  /// measured set-up builds.
  template <class Build>
  void sample(Build&& build) {
    const auto t0 = std::chrono::steady_clock::now();
    build();
    const auto t1 = std::chrono::steady_clock::now();
    seconds_.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::size_t samples() const { return seconds_.size(); }
  /// Throws std::invalid_argument when nothing was sampled.
  double median_seconds() const { return median(seconds_); }

 private:
  std::vector<double> seconds_;
};

/// Metric names: 1..64 letters, digits, '_', '.', '-', starting with a
/// letter or digit. Units: 1..16 letters, digits, '_', '/', '%', '.', '-'.
bool valid_metric_name(std::string_view name);
bool valid_unit(std::string_view unit);

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
/// {name: {"value": v, "unit": u}}}. Throws std::invalid_argument on an
/// invalid or repeated name, an invalid unit, a non-finite value or
/// attempted == 0, so a malformed result is never printed.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<metric>& metrics);

/// Shortest decimal that reads back as exactly `v` (all its digits).
std::string json_number(double v);

}  // namespace perfbench
