// Memoized plan cache: one planner run per (snapshot version,
// canonical request shape), every subsequent hit lock-free.
//
// The table is fixed-capacity open addressing over atomic entry
// pointers. Entries are immutable once published, so the hit path is:
// hash the canonical request (no allocation), probe a bounded window of
// seq_cst pointer loads, compare keys, return the entry's plan — zero
// locks, zero allocations, zero stores. The caller must hold an
// EpochDomain read guard (the same guard that pins the snapshot) for
// as long as it uses the returned plan.
//
// Invalidation is exact and free: the snapshot version is part of the
// key, so a version bump makes every older entry unreachable by
// construction. The store's publish hook calls invalidate_below() to
// unlink superseded entries and retire them through the epoch domain —
// memory is reclaimed once the last in-flight reader drains, never
// under one.
//
// Misses compute the plan (outside any lock — planning is the
// expensive part), then publish the entry with a CAS: losing a race to
// an identical concurrent insert just means serving the winner and
// retiring the duplicate. When the probe window has no free or
// replaceable slot, the plan is still served — the entry goes straight
// to the limbo list (valid until the caller's guard drains), counted
// in stats().uncached.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serving/epoch.hpp"
#include "serving/plan.hpp"
#include "serving/snapshot_store.hpp"

namespace netconst::serving {

class PlanCache {
 public:
  /// Probe window: slots inspected per lookup before declaring the
  /// region full.
  static constexpr std::size_t kProbeWindow = 16;

  /// `capacity` is rounded up to a power of two (minimum 64).
  explicit PlanCache(EpochDomain& epoch, std::size_t capacity = 4096);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The hit path. Returns the cached plan for (tenant_index,
  /// snapshot.version, request), computing and inserting it on a miss.
  /// Requires: `request` canonical, an active ReadGuard on the epoch
  /// domain held while the returned plan is used, and `snapshot`
  /// acquired under that same guard.
  const Plan* lookup_or_compute(std::size_t tenant_index,
                                const ConstantSnapshot& snapshot,
                                const PlanRequest& request);

  /// Probe only (no compute, no insert): the pure wait-free hit path,
  /// nullptr on a miss. Same guard contract as lookup_or_compute.
  const Plan* find(std::size_t tenant_index, std::uint64_t version,
                   const PlanRequest& request) const;

  /// Unlink every entry of `tenant_index` with version < `version` and
  /// retire it. Called from the snapshot store's publish hook; unlike
  /// the query paths it needs no caller-held guard — the scan pins the
  /// cache's own reader slot (concurrent callers serialize on it),
  /// so entries a racing stale-replacement retires cannot be reclaimed
  /// and re-inserted (ABA) mid-traversal.
  std::size_t invalidate_below(std::size_t tenant_index,
                               std::uint64_t version);

  std::size_t capacity() const { return mask_ + 1; }
  /// Entries currently linked in the table.
  std::size_t size() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        // computed and inserted
    std::uint64_t uncached = 0;      // computed, probe window full
    std::uint64_t insert_races = 0;  // lost a CAS to an identical insert
    std::uint64_t invalidated = 0;   // entries dropped by version bumps
    std::uint64_t replaced = 0;      // stale entries overwritten in place
  };
  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::size_t tenant = 0;
    Plan plan;  // plan.version / plan.request complete the key
  };

  bool matches(const Entry& entry, std::uint64_t hash,
               std::size_t tenant_index, std::uint64_t version,
               const PlanRequest& request) const;

  /// Unlink `entry` from `slot` again if an invalidate_below for its
  /// tenant has moved past its version since the miss began.
  void drop_if_superseded(std::atomic<const Entry*>& slot,
                          const Entry* entry);

  EpochDomain* epoch_;
  std::size_t mask_;  // capacity - 1 (power of two)
  std::vector<std::atomic<const Entry*>> table_;
  /// Reader slot pinned across invalidate_below scans; one slot, so
  /// concurrent invalidators serialize on the mutex (publish path, plus
  /// a miss's post-insert floor check — never a hit).
  std::mutex invalidate_mutex_;
  EpochDomain::Reader invalidate_reader_;
  /// Highest invalidate_below version per tenant, guarded by
  /// invalidate_mutex_. A querier that pinned the previous snapshot can
  /// insert after the sweep for the next one has passed its slot; it
  /// checks this floor after inserting, so no superseded entry outlives
  /// the invalidation that superseded it.
  std::unordered_map<std::size_t, std::uint64_t> floors_;

  mutable std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> uncached_{0};
  std::atomic<std::uint64_t> insert_races_{0};
  std::atomic<std::uint64_t> invalidated_{0};
  std::atomic<std::uint64_t> replaced_{0};
};

}  // namespace netconst::serving
