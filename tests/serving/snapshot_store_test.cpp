// SnapshotStore: published snapshots are immutable, versions are
// strictly monotone per tenant, and concurrent readers never observe a
// torn or reclaimed snapshot while refreshes publish underneath them.
#include "serving/snapshot_store.hpp"

#include <atomic>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "online/service.hpp"
#include "serving/plan_cache.hpp"

namespace netconst::serving {
namespace {

/// A component whose every link encodes `stamp`: readers can detect a
/// torn snapshot by checking that all fields agree.
core::ConstantComponent stamped_component(std::size_t size, double stamp) {
  core::ConstantComponent component;
  component.constant = netmodel::PerformanceMatrix(size, {stamp, stamp});
  component.error_norm = stamp;
  component.latency_error_norm = stamp;
  return component;
}

TEST(SnapshotStore, PublishRegistersAndVersions) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  EXPECT_EQ(store.tenant_count(), 0u);
  EXPECT_EQ(store.find("a"), SnapshotStore::npos);

  store.publish("a", stamped_component(4, 1.0), 10.0, 1);
  store.publish("b", stamped_component(4, 2.0), 11.0, 1);
  store.publish("a", stamped_component(4, 3.0), 12.0, 2);

  ASSERT_EQ(store.tenant_count(), 2u);
  const std::size_t a = store.find("a");
  const std::size_t b = store.find("b");
  ASSERT_NE(a, SnapshotStore::npos);
  ASSERT_NE(b, SnapshotStore::npos);
  EXPECT_EQ(store.tenant_name(a), "a");
  EXPECT_EQ(store.version(a), 2u);
  EXPECT_EQ(store.version(b), 1u);
  EXPECT_EQ(store.published_total(), 3u);

  EpochDomain::Reader reader(epoch);
  const SnapshotStore::Ref ref = store.acquire(a, reader);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->tenant, "a");
  EXPECT_EQ(ref->version, 2u);
  EXPECT_EQ(ref->refresh, 2u);
  EXPECT_DOUBLE_EQ(ref->published_at, 12.0);
  EXPECT_DOUBLE_EQ(ref->component.error_norm, 3.0);
}

// The hook is telemetry: every publish reports its tenant, its version
// and how many plans the snapshot it superseded held.
TEST(SnapshotStore, PublishHookSeesEveryVersion) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  using Call = std::tuple<std::size_t, std::uint64_t, std::size_t>;
  std::vector<Call> calls;
  store.set_publish_hook(
      [&](std::size_t tenant, std::uint64_t version, std::size_t plans) {
        calls.emplace_back(tenant, version, plans);
      });
  store.publish("a", stamped_component(3, 1.0), 0.0, 1);
  {
    EpochDomain::Reader reader(epoch);
    const SnapshotStore::Ref ref = store.acquire(0, reader);
    PlanCache cache(store);
    for (const std::size_t root : {0, 1}) {
      cache.lookup_or_compute(
          0, *ref,
          canonical_plan_request(PlanKind::BroadcastTree, {0, 1, 2}, root,
                                 4096));
    }
  }
  store.publish("a", stamped_component(3, 2.0), 1.0, 2);
  store.publish("b", stamped_component(3, 3.0), 2.0, 1);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0], (Call{0, 1, 0}));
  EXPECT_EQ(calls[1], (Call{0, 2, 2}));
  EXPECT_EQ(calls[2], (Call{1, 1, 0}));
  EXPECT_EQ(store.plans_superseded(), 2u);
}

TEST(SnapshotStore, SupersededSnapshotsAreReclaimedOnceReadersDrain) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  store.publish("a", stamped_component(4, 1.0), 0.0, 1);
  EpochDomain::Reader reader(epoch);
  {
    const SnapshotStore::Ref pinned = store.acquire(store.find("a"), reader);
    ASSERT_TRUE(pinned);
    store.publish("a", stamped_component(4, 2.0), 1.0, 2);
    // The pinned version 1 must stay fully intact.
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_DOUBLE_EQ(pinned->component.error_norm, 1.0);
    EXPECT_GE(epoch.pending(), 1u);
  }
  EXPECT_EQ(epoch.reclaim(), 1u);
}

// The ISSUE's snapshot-lifecycle hammer: 8 threads querying one tenant
// while refreshes publish new versions underneath them. Readers must
// never observe a torn snapshot (all fields stamped consistently) and
// versions must never move backwards within a reader's sequence of
// acquires. Run under TSan via the Serving label in CI.
TEST(SnapshotStore, HammerQueriesVersusRefreshes) {
  constexpr std::size_t kReaders = 8;
  constexpr std::size_t kPublishes = 1500;
  constexpr std::size_t kClusterSize = 6;

  EpochDomain epoch;
  SnapshotStore store(epoch);
  store.publish("t", stamped_component(kClusterSize, 1.0), 0.0, 1);
  const std::size_t tenant = store.find("t");
  ASSERT_NE(tenant, SnapshotStore::npos);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acquires{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      EpochDomain::Reader reader(epoch);
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotStore::Ref ref = store.acquire(tenant, reader);
        ASSERT_TRUE(ref);
        // Torn-read detector: every stamped field must agree with the
        // version the snapshot claims to be.
        const double stamp = static_cast<double>(ref->version);
        ASSERT_DOUBLE_EQ(ref->component.error_norm, stamp);
        ASSERT_DOUBLE_EQ(ref->component.latency_error_norm, stamp);
        ASSERT_DOUBLE_EQ(ref->component.constant.link(0, 1).alpha, stamp);
        ASSERT_EQ(ref->refresh, ref->version);
        // Monotone per reader: versions never go backwards.
        ASSERT_GE(ref->version, last_version);
        last_version = ref->version;
        acquires.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // At least kPublishes versions, and keep publishing until the reader
  // threads have demonstrably run (single-core boxes may not schedule
  // them until the writer yields).
  std::size_t publish = 1;
  while (publish < kPublishes ||
         acquires.load(std::memory_order_relaxed) < 100) {
    ++publish;
    store.publish("t",
                  stamped_component(kClusterSize,
                                    static_cast<double>(publish)),
                  static_cast<double>(publish), publish);
    if (publish % 256 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();

  EXPECT_GE(acquires.load(), 100u);
  EXPECT_EQ(store.version(tenant), publish);
  // With readers gone, everything but the live snapshot reclaims.
  epoch.reclaim();
  EXPECT_EQ(epoch.pending(), 0u);
  EXPECT_EQ(epoch.retired_total(), publish - 1);
}

// End-to-end with the real service: wire the store in as the snapshot
// sink and force recalibrations; every accepted refresh must publish,
// and versions must be strictly monotone per tenant.
TEST(Serving, ServicePublishesStrictlyMonotoneVersions) {
  online::ConstantFinderService service;
  cloud::SyntheticCloudConfig cloud_config;
  cloud_config.cluster_size = 6;
  cloud_config.datacenter_racks = 3;
  cloud_config.seed = 7;
  cloud::SyntheticCloud cloud(cloud_config);

  online::TenantConfig tenant;
  tenant.name = "t";
  tenant.provider = &cloud;
  tenant.window_capacity = 4;
  tenant.snapshot_interval = 600.0;
  tenant.operation_gap = 300.0;
  // Short base interval: recalibrations fire repeatedly within the run.
  tenant.scheduler.base_interval = 1500.0;
  tenant.seed = 11;
  service.add_tenant(tenant);

  EpochDomain epoch;
  SnapshotStore store(epoch);
  std::vector<std::uint64_t> versions;
  store.set_publish_hook(
      [&](std::size_t, std::uint64_t version, std::size_t) {
        versions.push_back(version);
      });
  service.set_snapshot_sink(&store);
  service.run(24);

  const std::uint64_t refreshes = service.status(0).refreshes;
  EXPECT_GE(refreshes, 2u);  // bootstrap + at least one recalibration
  ASSERT_EQ(versions.size(), refreshes);
  for (std::size_t k = 0; k < versions.size(); ++k) {
    EXPECT_EQ(versions[k], k + 1);  // strictly monotone, no gaps
  }

  const std::size_t index = store.find("t");
  ASSERT_NE(index, SnapshotStore::npos);
  EXPECT_EQ(store.version(index), refreshes);

  EpochDomain::Reader reader(epoch);
  const SnapshotStore::Ref ref = store.acquire(index, reader);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->version, refreshes);
  EXPECT_EQ(ref->refresh, refreshes);
  // The published component is the service's current component.
  EXPECT_EQ(ref->component.constant.bandwidth().max_abs_diff(
                service.component(0).constant.bandwidth()),
            0.0);
  service.set_snapshot_sink(nullptr);
}

}  // namespace
}  // namespace netconst::serving
