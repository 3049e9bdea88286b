#include "online/metrics.hpp"

#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "support/error.hpp"

namespace netconst::online {
namespace {

TEST(Metrics, CounterAccumulatesAndRejectsNegative) {
  MetricsRegistry registry;
  Counter& c = registry.counter("ops");
  c.increment();
  c.increment(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.increment(-1.0), ContractViolation);
  // Create-or-get returns the same object.
  EXPECT_DOUBLE_EQ(registry.counter("ops").value(), 3.5);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("norm");
  g.set(0.4);
  g.set(0.1);
  EXPECT_DOUBLE_EQ(g.value(), 0.1);
}

TEST(Metrics, HistogramSummary) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_DOUBLE_EQ(h.summary().mean(), 0.0);
  for (const double v : {2.0, -1.0, 4.0, 3.0}) h.observe(v);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 8.0);
  EXPECT_DOUBLE_EQ(s.min, -1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Metrics, HistogramPercentiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  EXPECT_DOUBLE_EQ(h.summary().p50, 0.0);
  EXPECT_DOUBLE_EQ(h.summary().p99, 0.0);
  // 1..100: nearest-rank p50 = 50, p99 = 99.
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  const Histogram::Summary s = h.summary();
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  // A single observation is every percentile.
  Histogram& one = registry.histogram("one");
  one.observe(7.0);
  EXPECT_DOUBLE_EQ(one.summary().p50, 7.0);
  EXPECT_DOUBLE_EQ(one.summary().p99, 7.0);
}

TEST(Metrics, HistogramEdgeCases) {
  MetricsRegistry registry;
  // Empty: every statistic reads as a defined zero, nothing crashes.
  const Histogram::Summary empty = registry.histogram("empty").summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.rejected, 0u);
  EXPECT_DOUBLE_EQ(empty.sum, 0.0);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  // Single sample: min == max == mean == the sample.
  Histogram& one = registry.histogram("one");
  one.observe(-3.5);
  const Histogram::Summary s = one.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, -3.5);
  EXPECT_DOUBLE_EQ(s.max, -3.5);
  EXPECT_DOUBLE_EQ(s.mean(), -3.5);
}

TEST(Metrics, HistogramRejectsNonFiniteObservations) {
  // A single NaN used to poison min/max/sum/mean permanently; the
  // degraded-measurement path reports losses as NaN by design, so the
  // histogram must shrug them off and count them instead.
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  h.observe(2.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(-std::numeric_limits<double>::infinity());
  h.observe(4.0);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.rejected, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 4.0);
}

TEST(Metrics, CounterRejectsNaNAmounts) {
  MetricsRegistry registry;
  Counter& c = registry.counter("ops");
  EXPECT_THROW(c.increment(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Metrics, NameBoundToOneTypeOnly) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), ContractViolation);
  EXPECT_THROW(registry.histogram("x"), ContractViolation);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), ContractViolation);
  EXPECT_THROW(registry.counter(""), ContractViolation);
}

TEST(Metrics, AbsentMetricsReadAsZeroWithoutCreating) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.counter_value("nope"), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("nope"), 0.0);
  EXPECT_EQ(registry.histogram_summary("nope").count, 0u);
  EXPECT_EQ(registry.metric_count(), 0u);
}

TEST(Metrics, CsvExportIsSortedAndTyped) {
  MetricsRegistry registry;
  registry.counter("b.count").increment(2.0);
  registry.gauge("a.gauge").set(1.5);
  registry.histogram("c.hist").observe(4.0);
  const CsvTable table = registry.to_csv();
  ASSERT_EQ(table.row_count(), 3u);
  EXPECT_EQ(table.rows[0][0], "a.gauge");
  EXPECT_EQ(table.rows[0][1], "gauge");
  EXPECT_EQ(table.rows[1][0], "b.count");
  EXPECT_EQ(table.rows[1][1], "counter");
  EXPECT_EQ(table.rows[2][0], "c.hist");
  EXPECT_EQ(table.rows[2][1], "histogram");
  EXPECT_DOUBLE_EQ(table.number(0, table.column_index("value")), 1.5);
  EXPECT_DOUBLE_EQ(table.number(1, table.column_index("value")), 2.0);
  EXPECT_DOUBLE_EQ(table.number(2, table.column_index("mean")), 4.0);
}

TEST(Metrics, JsonExportContainsAllMetrics) {
  MetricsRegistry registry;
  registry.counter("ops").increment(3.0);
  registry.histogram("h").observe(1.0);
  std::ostringstream out;
  obs::write_json_snapshot(out, {registry.samples(), {}});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"ops\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Metrics, ConsoleTableHasOneRowPerMetric) {
  MetricsRegistry registry;
  registry.counter("a").increment();
  registry.histogram("b").observe(2.0);
  EXPECT_EQ(registry.to_table().row_count(), 2u);
}

TEST(Metrics, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("c");
  Histogram& histogram = registry.histogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < kPerThread; ++k) {
        counter.increment();
        histogram.observe(1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.summary().count,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace netconst::online
