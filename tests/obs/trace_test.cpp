// Flight-recorder tests: span recording and parent links, the runtime
// toggle, ring-wrap semantics, snapshot-under-concurrency safety, the
// Chrome trace_event export, and the auto-dump path.
#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../support/json.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "support/rng.hpp"

namespace netconst::obs {
namespace {

class Trace : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::instance().set_enabled(true);
    if (!trace_enabled()) GTEST_SKIP() << "tracing compiled out";
    FlightRecorder::instance().clear();
  }
  void TearDown() override {
    FlightRecorder::instance().set_enabled(false);
    FlightRecorder::instance().clear();
  }

  static const SpanRecord* find(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
    for (const SpanRecord& s : spans) {
      if (s.name != nullptr && name == s.name) return &s;
    }
    return nullptr;
  }
};

TEST_F(Trace, RecordsNestedSpansWithParentLinks) {
  {
    Span outer("test.outer");
    outer.set_value(3.0);
    {
      Span inner("test.inner");
      inner.set_value(7.0);
    }
  }
  const auto spans = FlightRecorder::instance().snapshot();
  const SpanRecord* outer = find(spans, "test.outer");
  const SpanRecord* inner = find(spans, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_NE(outer->id, 0u);
  EXPECT_EQ(outer->parent, 0u);  // no enclosing span
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->value, 3.0);
  EXPECT_EQ(inner->value, 7.0);
  EXPECT_EQ(outer->thread, inner->thread);
  // The child is contained in the parent's interval.
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_LE(inner->start_ns, inner->end_ns);
}

TEST_F(Trace, SnapshotIsSortedByStartTime) {
  for (int k = 0; k < 10; ++k) {
    Span span("test.sorted");
    span.set_value(k);
  }
  const auto spans = FlightRecorder::instance().snapshot();
  ASSERT_GE(spans.size(), 10u);
  for (std::size_t k = 1; k < spans.size(); ++k) {
    EXPECT_LE(spans[k - 1].start_ns, spans[k].start_ns);
  }
}

TEST_F(Trace, DisabledRecorderRecordsNothing) {
  FlightRecorder::instance().set_enabled(false);
  const std::uint64_t before = FlightRecorder::instance().total_recorded();
  {
    Span span("test.disabled");
    span.set_value(1.0);
  }
  FlightRecorder::instance().record_interval("test.disabled_interval", 0, 1);
  FlightRecorder::instance().set_enabled(true);
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), before);
  EXPECT_EQ(find(FlightRecorder::instance().snapshot(), "test.disabled"),
            nullptr);
}

TEST_F(Trace, SpanInertWhenDisabledAtConstruction) {
  FlightRecorder::instance().set_enabled(false);
  const std::uint64_t before = FlightRecorder::instance().total_recorded();
  {
    Span span("test.toggled_mid_span");
    EXPECT_FALSE(span.active());
    // Enabling mid-span must not record a half-timed record.
    FlightRecorder::instance().set_enabled(true);
  }
  EXPECT_EQ(FlightRecorder::instance().total_recorded(), before);
}

TEST_F(Trace, RecordIntervalAppearsAsRootSpan) {
  const std::int64_t t0 = FlightRecorder::now_ns();
  const std::int64_t t1 = t0 + 1000;
  FlightRecorder::instance().record_interval("test.interval", t0, t1, 42.0);
  const auto spans = FlightRecorder::instance().snapshot();
  const SpanRecord* interval = find(spans, "test.interval");
  ASSERT_NE(interval, nullptr);
  EXPECT_EQ(interval->parent, 0u);
  EXPECT_EQ(interval->start_ns, t0);
  EXPECT_EQ(interval->end_ns, t1);
  EXPECT_EQ(interval->value, 42.0);
}

TEST_F(Trace, RingWrapKeepsNewestSpans) {
  auto& recorder = FlightRecorder::instance();
  const std::uint64_t before = recorder.total_recorded();
  const std::size_t total = FlightRecorder::kRingCapacity + 128;
  for (std::size_t k = 0; k < total; ++k) {
    recorder.record_interval("test.wrap", 0, 1, static_cast<double>(k));
  }
  EXPECT_EQ(recorder.total_recorded(), before + total);
  const auto spans = recorder.snapshot();
  ASSERT_LE(spans.size(), FlightRecorder::kRingCapacity);
  // The newest record survived the wrap; the oldest did not.
  double max_value = -1.0;
  double min_value = static_cast<double>(total);
  for (const SpanRecord& s : spans) {
    if (std::string("test.wrap") != s.name) continue;
    max_value = std::max(max_value, s.value);
    min_value = std::min(min_value, s.value);
  }
  EXPECT_EQ(max_value, static_cast<double>(total - 1));
  EXPECT_GT(min_value, 0.0);
}

TEST_F(Trace, ClearDropsRetainedButKeepsTotals) {
  auto& recorder = FlightRecorder::instance();
  recorder.record_interval("test.cleared", 0, 1);
  const std::uint64_t total = recorder.total_recorded();
  EXPECT_GE(total, 1u);
  recorder.clear();
  EXPECT_TRUE(recorder.snapshot().empty());
  EXPECT_EQ(recorder.total_recorded(), total);
  // Recording continues after a clear.
  recorder.record_interval("test.after_clear", 0, 1);
  EXPECT_EQ(recorder.snapshot().size(), 1u);
}

TEST_F(Trace, ChromeTraceExportIsValidJson) {
  {
    Span outer("test.chrome_outer");
    Span inner("test.chrome_inner");
    inner.set_value(5.0);
  }
  std::ostringstream out;
  FlightRecorder::instance().write_chrome_trace(out);
  const testjson::Value doc = testjson::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const testjson::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.size(), 2u);
  bool found_inner = false;
  for (const testjson::Value& event : events.array) {
    EXPECT_EQ(event.at("ph").string, "X");
    EXPECT_EQ(event.at("cat").string, "netconst");
    EXPECT_TRUE(event.at("ts").is_number());
    EXPECT_TRUE(event.at("dur").is_number());
    EXPECT_GE(event.at("dur").number, 0.0);
    if (event.at("name").string == "test.chrome_inner") {
      found_inner = true;
      EXPECT_EQ(event.at("args").at("value").number, 5.0);
      EXPECT_NE(event.at("args").at("parent").number, 0.0);
    }
  }
  EXPECT_TRUE(found_inner);
}

// Observation never changes a solver bit: an APG solve with the
// recorder on is byte-identical to the same solve with it off.
TEST_F(Trace, SolverOutputByteIdenticalTracingOnAndOff) {
  rpca::SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 40;
  spec.rank = 1;
  spec.sparsity = 0.05;
  spec.sparse_magnitude = 6.0;
  Rng rng(20);
  const rpca::SyntheticProblem problem = rpca::make_synthetic(spec, rng);
  rpca::Options options;
  options.max_iterations = 400;

  FlightRecorder::instance().set_enabled(false);
  const rpca::Result quiet = rpca::solve(problem.data, options);
  FlightRecorder::instance().set_enabled(true);
  const rpca::Result traced = rpca::solve(problem.data, options);

  EXPECT_EQ(quiet.iterations, traced.iterations);
  EXPECT_EQ(quiet.low_rank.max_abs_diff(traced.low_rank), 0.0);
  EXPECT_EQ(quiet.sparse.max_abs_diff(traced.sparse), 0.0);
  EXPECT_EQ(quiet.residual, traced.residual);
}

TEST_F(Trace, SnapshotUnderConcurrentRecordingIsWellFormed) {
  auto& recorder = FlightRecorder::instance();
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        Span outer("test.concurrent_outer");
        Span inner("test.concurrent_inner");
        inner.set_value(1.0);
      }
    });
  }
  // Snapshot repeatedly while the producers hammer their rings: every
  // record read must be internally consistent (never torn). On a
  // single-core box the producers may not get scheduled before 50
  // rounds elapse, so keep going until they have recorded something.
  for (int round = 0; round < 50 || recorder.total_recorded() == 0;
       ++round) {
    const auto spans = recorder.snapshot();
    for (const SpanRecord& s : spans) {
      ASSERT_NE(s.name, nullptr);
      ASSERT_NE(s.id, 0u);
      ASSERT_LE(s.start_ns, s.end_ns);
    }
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& p : producers) p.join();
  EXPECT_GT(recorder.total_recorded(), 0u);
}

class TraceDump : public Trace {
 protected:
  void SetUp() override {
    Trace::SetUp();
    if (!trace_enabled()) return;  // skipped already
    dir_ = std::filesystem::temp_directory_path() /
           ("netconst_trace_test_" +
            std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::create_directories(dir_);
    previous_dir_ = FlightRecorder::instance().dump_directory();
    FlightRecorder::instance().set_dump_directory(dir_.string());
  }
  void TearDown() override {
    if (trace_enabled()) {
      FlightRecorder::instance().set_dump_directory(previous_dir_);
      std::filesystem::remove_all(dir_);
    }
    Trace::TearDown();
  }

  std::filesystem::path dir_;
  std::string previous_dir_;
};

TEST_F(TraceDump, AutoDumpWritesParseableTrace) {
  auto& recorder = FlightRecorder::instance();
  recorder.record_interval("test.anomaly", 0, 1000, 1.0);
  const std::uint64_t requested_before = recorder.auto_dumps_requested();
  const std::uint64_t written_before = recorder.auto_dumps_written();

  const std::string path = recorder.maybe_auto_dump("unit_test_reason");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("unit_test_reason"), std::string::npos);
  EXPECT_EQ(recorder.auto_dumps_requested(), requested_before + 1);
  EXPECT_EQ(recorder.auto_dumps_written(), written_before + 1);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const testjson::Value doc = testjson::parse(buffer.str());
  bool found = false;
  for (const testjson::Value& event : doc.at("traceEvents").array) {
    if (event.at("name").string == "test.anomaly") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceDump, AutoDumpRespectsDisabledRecorder) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(false);
  const std::uint64_t requested_before = recorder.auto_dumps_requested();
  const std::uint64_t written_before = recorder.auto_dumps_written();
  EXPECT_TRUE(recorder.maybe_auto_dump("while_disabled").empty());
  EXPECT_EQ(recorder.auto_dumps_requested(), requested_before + 1);
  EXPECT_EQ(recorder.auto_dumps_written(), written_before);
  recorder.set_enabled(true);
}

TEST_F(TraceDump, AutoDumpRequiresADirectory) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_dump_directory("");
  const std::uint64_t written_before = recorder.auto_dumps_written();
  EXPECT_TRUE(recorder.maybe_auto_dump("no_directory").empty());
  EXPECT_EQ(recorder.auto_dumps_written(), written_before);
}

}  // namespace
}  // namespace netconst::obs
