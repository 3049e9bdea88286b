#include "online/events.hpp"

#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/json.hpp"
#include "cloud/synthetic.hpp"
#include "online/service.hpp"

namespace netconst::online {
namespace {

Event make_event(double time, EventKind kind, double value = 0.0) {
  Event event;
  event.time = time;
  event.tenant = "t0";
  event.kind = kind;
  // Move-assigned: gcc 12's -Wrestrict misfires on the const char*
  // assignment of a one-character literal.
  event.detail = std::string("d");
  event.value = value;
  return event;
}

TEST(EventLog, RecordsAndCountsPerKind) {
  EventLog log;
  log.record(make_event(1.0, EventKind::Refresh, 0.1));
  log.record(make_event(2.0, EventKind::Refresh, 0.2));
  log.record(make_event(3.0, EventKind::ThresholdBreach, 1.5));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.count(EventKind::Refresh), 2u);
  EXPECT_EQ(log.count(EventKind::ThresholdBreach), 1u);
  EXPECT_EQ(log.count(EventKind::LevelChange), 0u);

  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[2].kind, EventKind::ThresholdBreach);
  EXPECT_DOUBLE_EQ(events[2].value, 1.5);
}

TEST(EventLog, BoundedLogDropsOldestButKeepsCounting) {
  EventLog log(2);
  log.record(make_event(1.0, EventKind::Refresh));
  log.record(make_event(2.0, EventKind::Recalibration));
  log.record(make_event(3.0, EventKind::Recalibration));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.recorded(), 3u);
  // The dropped Refresh still counts.
  EXPECT_EQ(log.count(EventKind::Refresh), 1u);
  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_DOUBLE_EQ(events[1].time, 3.0);
}

TEST(EventLog, KindNamesAreDistinct) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    for (std::size_t j = i + 1; j < kEventKindCount; ++j) {
      EXPECT_STRNE(event_kind_name(static_cast<EventKind>(i)),
                   event_kind_name(static_cast<EventKind>(j)));
    }
  }
  EXPECT_STREQ(event_kind_name(EventKind::ColdSolveFallback),
               "cold_solve_fallback");
}

// A cold_solve_fallback event says which layers were rejected, by which
// trigger, and whether the cold redo's polish hit its cap as well. A
// two-step budget leaves the warm attempt one fit sweep and one
// alternation step, which never pass a 1e-300 tolerance; the cold
// redo's two plain steps cap too.
TEST(EventLog, ColdSolveFallbackDetailNamesTheTrigger) {
  cloud::SyntheticCloudConfig network;
  network.cluster_size = 6;
  network.datacenter_racks = 3;
  network.seed = 21;
  cloud::SyntheticCloud cloud(network);
  TenantConfig config;
  config.name = "t0";
  config.provider = &cloud;
  config.window_capacity = 4;
  config.snapshot_interval = 600.0;
  config.operation_gap = 300.0;
  config.scheduler.base_interval = 1500.0;
  config.refresher.finder.rpca.polish_iterations = 2;
  config.refresher.finder.rpca.polish_tolerance = 1e-300;
  ConstantFinderService service;
  service.add_tenant(config);
  service.run(12);

  const std::string expected =
      "warm solve rejected (latency: polish_cap, cold polish capped too; "
      "bandwidth: polish_cap, cold polish capped too); solved cold";
  std::size_t fallbacks = 0;
  for (const Event& event : service.events().snapshot()) {
    if (event.kind != EventKind::ColdSolveFallback) continue;
    ++fallbacks;
    EXPECT_EQ(event.detail, expected);
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_EQ(fallbacks, service.events().count(EventKind::ColdSolveFallback));
}

TEST(EventLog, CsvExport) {
  EventLog log;
  log.record(make_event(5.0, EventKind::LevelChange, 2.0));
  const CsvTable table = log.to_csv();
  ASSERT_EQ(table.row_count(), 1u);
  EXPECT_DOUBLE_EQ(table.number(0, table.column_index("time")), 5.0);
  EXPECT_EQ(table.rows[0][table.column_index("tenant")], "t0");
  EXPECT_EQ(table.rows[0][table.column_index("kind")], "level_change");
  EXPECT_DOUBLE_EQ(table.number(0, table.column_index("value")), 2.0);
  EXPECT_EQ(table.rows[0][table.column_index("detail")], "d");
}

TEST(EventLog, JsonExport) {
  EventLog log;
  log.record(make_event(1.0, EventKind::SnapshotIngested));
  std::ostringstream out;
  log.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"snapshot_ingested\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"t0\""), std::string::npos);
}

// Tenant names and details are free text (TenantConfig::name, fault
// descriptions); quotes, backslashes and control characters must not
// break the document.
TEST(EventLog, JsonExportEscapesTenantAndDetail) {
  EventLog log;
  Event event = make_event(1.0, EventKind::Refresh);
  event.tenant = "a\"b";
  event.detail = std::string("c:\\tmp\nnext");
  log.record(std::move(event));
  std::ostringstream out;
  log.write_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  const testjson::Value doc = testjson::parse(json);
  const testjson::Value& parsed = doc.at("events").at(0);
  EXPECT_EQ(parsed.at("tenant").string, "a\"b");
  EXPECT_EQ(parsed.at("detail").string, "c:\\tmp next");
  EXPECT_EQ(parsed.at("kind").string, "refresh");
}

TEST(EventLog, ConcurrentRecordsAreLossless) {
  EventLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int k = 0; k < kPerThread; ++k) {
        log.record(make_event(static_cast<double>(k), EventKind::Refresh));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.recorded(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.count(EventKind::Refresh),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace netconst::online
