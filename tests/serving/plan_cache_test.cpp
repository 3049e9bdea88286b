// PlanCache + plan canonicalization: permuted requests share one key
// and one byte-identical plan, cache hits serve exactly what a direct
// planner invocation produces, and a plan lives exactly as long as the
// snapshot it was planned from.
#include "serving/plan_cache.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serving/plan.hpp"
#include "support/error.hpp"

namespace netconst::serving {
namespace {

/// Asymmetric deterministic component: link quality varies by pair so
/// FNF ordering and mapping refinement have real structure to find, and
/// by version so plans at different versions differ.
core::ConstantComponent test_component(std::size_t size,
                                       std::uint64_t version) {
  core::ConstantComponent component;
  component.constant = netmodel::PerformanceMatrix(size);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      if (i == j) continue;
      const double alpha =
          1e-4 * (1.0 + 0.1 * static_cast<double>((i * 7 + j * 3) % 11));
      const double beta =
          1e8 / (1.0 + 0.2 * static_cast<double>((i + 2 * j) % 7) +
                 0.01 * static_cast<double>(version));
      component.constant.set_link(i, j, {alpha, beta});
    }
  }
  return component;
}

/// Publish `test_component(size, version)` as tenant `name`'s next
/// version (the store numbers versions itself: call in version order).
void publish(SnapshotStore& store, const std::string& name, std::size_t size,
             std::uint64_t version) {
  store.publish(name, test_component(size, version),
                static_cast<double>(version), version);
}

TEST(PlanCache, CanonicalizationSortsAndDedups) {
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {5, 1, 3, 1, 5, 0}, 3, 1024);
  EXPECT_EQ(request.nodes, (std::vector<std::size_t>{0, 1, 3, 5}));
  EXPECT_EQ(request.root, 3u);
  EXPECT_EQ(request.bytes, 1024u);

  EXPECT_THROW(canonical_plan_request(PlanKind::BroadcastTree, {1}, 1, 1),
               ContractViolation);  // < 2 nodes
  EXPECT_THROW(canonical_plan_request(PlanKind::BroadcastTree, {1, 2}, 3, 1),
               ContractViolation);  // root not in set
  EXPECT_THROW(canonical_plan_request(PlanKind::BroadcastTree, {1, 2}, 1, 0),
               ContractViolation);  // zero bytes
}

TEST(PlanCache, PermutedNodeOrdersReturnByteIdenticalPlans) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  publish(store, "t", 8, 1);
  PlanCache cache(store);
  EpochDomain::Reader reader(epoch);

  std::vector<std::size_t> nodes{2, 7, 0, 4, 5};
  std::mt19937_64 rng(42);
  for (const PlanKind kind :
       {PlanKind::BroadcastTree, PlanKind::TopologyMapping}) {
    std::string first_json;
    for (int permutation = 0; permutation < 8; ++permutation) {
      std::shuffle(nodes.begin(), nodes.end(), rng);
      const PlanRequest request = canonical_plan_request(
          kind, nodes, kind == PlanKind::BroadcastTree ? 4 : 0,
          1 << 20);
      const SnapshotStore::Ref ref = store.acquire(0, reader);
      const Plan* plan = cache.lookup_or_compute(0, *ref, request);
      ASSERT_NE(plan, nullptr);
      if (first_json.empty()) {
        first_json = plan->json;
        EXPECT_FALSE(first_json.empty());
      } else {
        // Byte-identical: permuted spellings share one cache entry.
        EXPECT_EQ(plan->json, first_json);
      }
    }
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // one compute per kind
  EXPECT_EQ(stats.hits, 14u);   // everything else served from cache
}

TEST(PlanCache, CachedPlanMatchesDirectPlannerInvocation) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  for (std::uint64_t v = 1; v <= 3; ++v) publish(store, "t", 8, v);
  PlanCache cache(store);
  EpochDomain::Reader reader(epoch);

  for (const PlanKind kind :
       {PlanKind::BroadcastTree, PlanKind::TopologyMapping}) {
    const PlanRequest request = canonical_plan_request(
        kind, {0, 1, 2, 3, 6, 7}, 2, 8 * 1024 * 1024);
    const SnapshotStore::Ref ref = store.acquire(0, reader);
    const Plan direct = compute_plan(*ref, request);

    // Twice: once to fill (miss), once to hit.
    cache.lookup_or_compute(0, *ref, request);
    const Plan* cached = cache.lookup_or_compute(0, *ref, request);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->json, direct.json);
    EXPECT_EQ(cached->edges, direct.edges);
    EXPECT_EQ(cached->assignment, direct.assignment);
    EXPECT_DOUBLE_EQ(cached->predicted_seconds, direct.predicted_seconds);
    EXPECT_EQ(cached->version, 3u);
  }
}

TEST(PlanCache, BroadcastPlanShape) {
  ConstantSnapshot snapshot;
  snapshot.component = test_component(6, 1);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {1, 2, 4, 5}, 2, 1 << 16);
  const Plan plan = compute_plan(snapshot, request);
  // A broadcast tree over k nodes has k-1 edges, all endpoints from the
  // request's node set, the root transmitting first.
  ASSERT_EQ(plan.edges.size(), 3u);
  EXPECT_EQ(plan.edges.front().parent, 2u);
  for (const Plan::TreeEdge& edge : plan.edges) {
    EXPECT_TRUE(std::binary_search(request.nodes.begin(),
                                   request.nodes.end(), edge.parent));
    EXPECT_TRUE(std::binary_search(request.nodes.begin(),
                                   request.nodes.end(), edge.child));
    EXPECT_NE(edge.parent, edge.child);
  }
  EXPECT_GT(plan.predicted_seconds, 0.0);
  EXPECT_NE(plan.json.find("\"kind\":\"broadcast_tree\""),
            std::string::npos);
}

TEST(PlanCache, MappingPlanShape) {
  ConstantSnapshot snapshot;
  snapshot.component = test_component(6, 1);
  const PlanRequest request = canonical_plan_request(
      PlanKind::TopologyMapping, {0, 2, 3, 5}, 0, 1 << 16);
  const Plan plan = compute_plan(snapshot, request);
  // A full permutation: every requested node hosts exactly one task.
  ASSERT_EQ(plan.assignment.size(), 4u);
  std::vector<std::size_t> hosts = plan.assignment;
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(hosts, request.nodes);
  EXPECT_GT(plan.predicted_seconds, 0.0);
  EXPECT_NE(plan.json.find("\"kind\":\"topology_mapping\""),
            std::string::npos);
}

// A plan computed at v1 is never served at v2, is counted as
// invalidated when v2 publishes, stays intact while a reader pins v1,
// and is freed with v1: the only object the epoch domain ever retires is
// the snapshot itself.
TEST(PlanCache, PlanLivesAndDiesWithItsSnapshot) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  publish(store, "t", 8, 1);
  PlanCache cache(store);
  EpochDomain::Reader reader(epoch);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {0, 1, 2, 3}, 0, 4096);

  std::string old_json;
  {
    const SnapshotStore::Ref v1 = store.acquire(0, reader);
    const Plan* old_plan = cache.lookup_or_compute(0, *v1, request);
    ASSERT_NE(old_plan, nullptr);
    EXPECT_EQ(old_plan->version, 1u);
    EXPECT_EQ(v1->plan_count(), 1u);
    EXPECT_EQ(cache.find(0, 1, request), old_plan);
    EXPECT_EQ(cache.find(0, 2, request), nullptr);

    // v2 publishes while v1 (and its plan) is pinned.
    publish(store, "t", 8, 2);
    EXPECT_EQ(cache.stats().invalidated, 1u);
    EXPECT_EQ(cache.find(0, 1, request), nullptr);  // not current any more
    EXPECT_EQ(epoch.pending(), 1u);                 // v1, plan inside
    EXPECT_EQ(old_plan->json, compute_plan(*v1, request).json);
    old_json = old_plan->json;
  }
  {
    const SnapshotStore::Ref v2 = store.acquire(0, reader);
    EXPECT_EQ(v2->plan_count(), 0u);  // a new version starts empty
    const Plan* new_plan = cache.lookup_or_compute(0, *v2, request);
    ASSERT_NE(new_plan, nullptr);
    EXPECT_EQ(new_plan->version, 2u);
    EXPECT_EQ(new_plan->json, compute_plan(*v2, request).json);
    EXPECT_NE(new_plan->json, old_json);
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.uncached, 0u);
  // v1 went to the domain as one object, and is freed with its plan
  // once the reader is gone.
  EXPECT_EQ(epoch.reclaim(), 1u);
  EXPECT_EQ(epoch.pending(), 0u);
  EXPECT_EQ(epoch.retired_total(), 1u);
  EXPECT_EQ(epoch.reclaimed_total(), 1u);
}

// Two per-tenant publishers bump versions while query threads serve
// plans on whatever snapshot they pinned. Every served plan must carry
// its pinned snapshot's version and be byte-identical to a direct
// compute_plan on that snapshot, and reclaiming superseded snapshots
// (each publish reclaims, also the other tenant's) must never free a
// plan a reader is using. The request mix overflows the plan table, so
// the uncached path races the rest too. ASan/TSan make a premature free
// or an unsynchronized plan fail loudly.
TEST(PlanCache, PublishesRaceQueriesAndCrossTenantReclaims) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  constexpr std::size_t kTenants = 2;
  constexpr std::uint64_t kVersions = 160;
  constexpr std::size_t kQueryThreads = 4;
  constexpr std::size_t kClusterSize = 6;
  const std::array<std::string, kTenants> names{"t0", "t1"};
  for (const std::string& name : names) publish(store, name, kClusterSize, 1);
  PlanCache cache(store);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> queriers;
  for (std::size_t q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&, q] {
      EpochDomain::Reader reader(epoch);
      std::mt19937_64 rng(1000 * q + 7);
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t t = rng() % kTenants;
        std::vector<std::size_t> nodes{rng() % kClusterSize, 0, 0};
        nodes[1] = (nodes[0] + 1 + rng() % 5) % kClusterSize;
        nodes[2] = (nodes[0] + 1 + rng() % 5) % kClusterSize;
        const PlanRequest request = canonical_plan_request(
            PlanKind::BroadcastTree, nodes, nodes.front(),
            1024 * (1 + rng() % 4));
        const SnapshotStore::Ref ref = store.acquire(t, reader);
        const Plan* plan = cache.lookup_or_compute(t, *ref, request);
        if (plan == nullptr || plan->version != ref->version ||
            plan->json != compute_plan(*ref, request).json) {
          failed.store(true, std::memory_order_release);
          return;
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> publishers;
  for (std::size_t t = 0; t < kTenants; ++t) {
    publishers.emplace_back([&, t] {
      for (std::uint64_t v = 2; v <= kVersions; ++v) {
        // Each publish reclaims, so this one can free the other
        // tenant's superseded snapshots (and their plans) too.
        publish(store, names[t], kClusterSize, v);
        std::this_thread::yield();
      }
    });
  }

  for (std::thread& publisher : publishers) publisher.join();
  // Keep querying the final versions until the queriers demonstrably
  // ran (single-core hosts may not schedule them earlier).
  while (served.load(std::memory_order_relaxed) < 100 &&
         !failed.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& querier : queriers) querier.join();
  EXPECT_FALSE(failed.load());

  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(store.version(t), kVersions);
  }
  // Superseded snapshots and the uncached plans are all the domain ever
  // saw; with the readers gone it frees every one of them.
  epoch.reclaim();
  EXPECT_EQ(epoch.pending(), 0u);
  EXPECT_EQ(epoch.retired_total(),
            kTenants * (kVersions - 1) + cache.stats().uncached);
}

// The plan table holds the largest per-tenant request-shape set in use
// (32) without spilling, and a table whose probe windows are full still
// serves every request byte-identically (uncached).
TEST(PlanCache, FullTableStillServesIdenticalPlans) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  constexpr std::size_t kClusterSize = 8;
  publish(store, "t", kClusterSize, 1);
  PlanCache cache(store);
  EpochDomain::Reader reader(epoch);

  // Distinct canonical requests: every pair, then every triple, of the
  // cluster as a broadcast tree, at two message sizes.
  std::vector<PlanRequest> requests;
  for (const std::uint64_t bytes : {4096u, 1u << 20}) {
    for (std::size_t a = 0; a < kClusterSize; ++a) {
      for (std::size_t b = a + 1; b < kClusterSize; ++b) {
        requests.push_back(canonical_plan_request(PlanKind::BroadcastTree,
                                                  {a, b}, a, bytes));
        for (std::size_t c = b + 1; c < kClusterSize; ++c) {
          requests.push_back(canonical_plan_request(
              PlanKind::BroadcastTree, {a, b, c}, a, bytes));
        }
      }
    }
  }
  ASSERT_GT(requests.size(), ConstantSnapshot::kPlanSlots);

  const SnapshotStore::Ref ref = store.acquire(0, reader);
  const auto serve = [&](const PlanRequest& request) {
    const Plan* plan = cache.lookup_or_compute(0, *ref, request);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->json, compute_plan(*ref, request).json);
  };
  for (std::size_t k = 0; k < 32; ++k) serve(requests[k]);
  EXPECT_EQ(cache.stats().uncached, 0u);
  EXPECT_EQ(cache.stats().misses, 32u);
  EXPECT_EQ(ref->plan_count(), 32u);

  for (const PlanRequest& request : requests) serve(request);
  for (const PlanRequest& request : requests) serve(request);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_GT(stats.uncached, 0u);
  EXPECT_EQ(stats.misses, ref->plan_count());
  EXPECT_LE(ref->plan_count(), ConstantSnapshot::kPlanSlots);
  // Every uncached plan was retired at once, to be freed when the
  // reader's guard drains.
  EXPECT_EQ(epoch.retired_total(), stats.uncached);
}

TEST(PlanCache, TenantsAreIsolated) {
  EpochDomain epoch;
  SnapshotStore store(epoch);
  publish(store, "a", 6, 1);
  publish(store, "b", 6, 1);
  PlanCache cache(store);
  EpochDomain::Reader reader(epoch);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {0, 1, 2}, 0, 4096);
  {
    const SnapshotStore::Ref a = store.acquire(0, reader);
    const Plan* plan = cache.lookup_or_compute(0, *a, request);
    EXPECT_EQ(plan->tenant, "a");
    // Tenant b's snapshot has a table of its own: still empty.
    EXPECT_EQ(cache.find(1, 1, request), nullptr);
    EXPECT_EQ(cache.find(0, 1, request), plan);
  }
  {
    const SnapshotStore::Ref b = store.acquire(1, reader);
    const Plan* plan = cache.lookup_or_compute(1, *b, request);
    EXPECT_EQ(plan->tenant, "b");
    EXPECT_EQ(b->plan_count(), 1u);
  }
  // A publish for b leaves a's plan alone.
  publish(store, "b", 6, 2);
  const SnapshotStore::Ref a = store.acquire(0, reader);
  EXPECT_EQ(a->plan_count(), 1u);
  EXPECT_NE(cache.find(0, 1, request), nullptr);
  EXPECT_EQ(cache.find(1, 1, request), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

}  // namespace
}  // namespace netconst::serving
