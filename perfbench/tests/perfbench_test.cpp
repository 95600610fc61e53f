// Unit tests of the benchmark's own helpers: the percentile rules its
// timings follow, the median-of-constructions set-up timer, metric-name
// validation and the result-line schema.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_EQ(percentile(one_to(10), 95), 10.0);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median(one_to(5)), 3.0);
  EXPECT_EQ(median(one_to(4)), 2.5);
  EXPECT_EQ(median({2.0, 2.0}), 2.0);
}

TEST(TailRule, SamplesBeyondThePercentile) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(0, 90), 0u);
  EXPECT_EQ(samples_beyond(1, 90), 0u);
}

TEST(TailRule, MinimumSamplesKeepTenBeyond) {
  EXPECT_EQ(min_samples_for_tail(90), 100u);
  EXPECT_EQ(min_samples_for_tail(99), 1000u);
  EXPECT_GE(samples_beyond(min_samples_for_tail(90), 90), kTailSamplesBeyond);
  EXPECT_LT(samples_beyond(min_samples_for_tail(90) - 1, 90),
            kTailSamplesBeyond);
}

TEST(SetupTimer, MedianOfConstructions) {
  setup_timer timer;
  EXPECT_THROW(timer.median_seconds(), std::invalid_argument);
  int calls = 0;
  for (int i = 0; i < 7; ++i) {
    timer.sample([&] {
      ++calls;
      std::vector<int> v(1000, calls);
      volatile int sink = v.back();
      (void)sink;
    });
  }
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(timer.samples(), 7u);
  EXPECT_GT(timer.median_seconds(), 0.0);
  EXPECT_LT(timer.median_seconds(), 1.0);
}

TEST(SetupTimer, IgnoresASlowFirstConstruction) {
  setup_timer timer;
  for (int i = 0; i < 5; ++i) {
    timer.sample([&] {
      if (i != 0) return;
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  }
  EXPECT_LT(timer.median_seconds(), 0.01);
}

TEST(Names, MetricNames) {
  EXPECT_TRUE(valid_metric_name("mw.round_us_p50"));
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("9lives-ok"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name("quote\""));
}

TEST(Names, Units) {
  for (const char* u : {"us", "s", "ms", "1/s", "count", "%", "ratio", "MB"}) {
    EXPECT_TRUE(valid_unit(u)) << u;
  }
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit(std::string(17, 'a')));
  EXPECT_FALSE(valid_unit("µs"));
  EXPECT_FALSE(valid_unit("a b"));
}

TEST(Schema, ResultLine) {
  const std::string line = result_json(
      true, 1000, 0,
      {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.8127, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
}

TEST(Schema, RejectsMalformedResults) {
  EXPECT_THROW(result_json(true, 0, 0, {}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", 1, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1, "bad unit"}}),
               std::invalid_argument);
  EXPECT_THROW(
      result_json(true, 1, 0,
                  {{"a", std::numeric_limits<double>::quiet_NaN(), "s"}}),
      std::invalid_argument);
}

TEST(Schema, NumbersKeepAllTheirDigits) {
  for (const double v : {0.1, 1.0 / 3.0, 123456.789012345, 2.5e-7, 1e21}) {
    EXPECT_EQ(std::stod(json_number(v)), v);
  }
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(90.0), "90");
  EXPECT_EQ(json_number(-0.0), "-0");
}

}  // namespace
}  // namespace perfbench
