#include "report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank_index(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.' || c == '-';
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  const std::size_t k = nearest_rank_index(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of nothing");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - nearest_rank_index(n, p);
}

std::size_t min_samples_for_tail(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < kTailSamplesBeyond) ++n;
  return n;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite number");
  char buf[32];
  if (v == std::trunc(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int digits = 1; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<metric>& metrics) {
  if (attempted == 0) throw std::invalid_argument("nothing attempted");
  std::set<std::string_view> seen;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("bad unit for " + m.name + ": " + m.unit);
    }
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
