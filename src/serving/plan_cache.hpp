// Memoized plan cache: one planner run per (snapshot, canonical request
// shape), every subsequent hit lock-free.
//
// Plans live in the snapshot they were planned from: each
// ConstantSnapshot carries a fixed-size open-addressing table of atomic
// plan pointers (ConstantSnapshot::plans) keyed by the canonical request
// alone. A version bump publishes a new snapshot with an empty table, so
// an older plan can only be reached through a reader that still pins its
// snapshot, and the epoch domain frees it with that snapshot once the
// last such reader drains. Nothing is ever invalidated.
//
// The hit path: hash the canonical request (no allocation), probe a
// bounded window of the pinned snapshot's table with seq_cst loads,
// compare requests, return the plan — zero locks, zero allocations. The
// caller must hold an EpochDomain read guard (the same guard that pins
// the snapshot) for as long as it uses the returned plan.
//
// Misses compute the plan (outside any lock — planning is the expensive
// part), then link it into the first free slot of the window with a
// CAS. A slot is never emptied again, so a lost CAS means the slot is
// taken for good: if it holds the same request, an identical concurrent
// miss won and the loser deletes its copy. When the window has no free
// slot the plan is still served — it goes straight to the epoch domain's
// limbo list (valid until the caller's guard drains), counted in
// stats().uncached.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "serving/epoch.hpp"
#include "serving/plan.hpp"
#include "serving/snapshot_store.hpp"

namespace netconst::serving {

class PlanCache {
 public:
  /// Probe window: slots inspected per lookup before declaring the
  /// region full.
  static constexpr std::size_t kProbeWindow = 16;

  /// Serves plans for `store`'s snapshots; the store must outlive the
  /// cache.
  explicit PlanCache(const SnapshotStore& store) : store_(&store) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The hit path. Returns `snapshot`'s plan for `request`, computing
  /// and linking it on a miss. Requires: `request` canonical, an active
  /// ReadGuard on the store's epoch domain held while the returned plan
  /// is used, and `snapshot` acquired under that same guard.
  /// `tenant_index` is unused (the snapshot names its tenant); the
  /// signature is kept because bench/e2e calls it.
  const Plan* lookup_or_compute(std::size_t tenant_index,
                                const ConstantSnapshot& snapshot,
                                const PlanRequest& request);

  /// Probe only (no compute, no insert), nullptr on a miss: loads the
  /// tenant's current snapshot under the caller's guard and probes its
  /// table if its version is `version`. Kept because bench/e2e calls it.
  const Plan* find(std::size_t tenant_index, std::uint64_t version,
                   const PlanRequest& request) const;

  /// Kept because bench/e2e calls it.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        // computed and linked
    std::uint64_t uncached = 0;      // computed, probe window full
    std::uint64_t insert_races = 0;  // lost a CAS to an identical insert
    /// Plans held by superseded snapshots when the publish replaced
    /// them (SnapshotStore::plans_superseded).
    std::uint64_t invalidated = 0;
  };
  Stats stats() const;

 private:
  static const Plan* probe(const ConstantSnapshot& snapshot,
                           std::uint64_t hash, const PlanRequest& request);

  const SnapshotStore* store_;
  mutable std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> uncached_{0};
  std::atomic<std::uint64_t> insert_races_{0};
};

}  // namespace netconst::serving
