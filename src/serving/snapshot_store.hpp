// RCU snapshot store: the serving front end's source of truth.
//
// Every accepted refresh/recalibration publishes an immutable,
// monotonically versioned ConstantSnapshot per tenant (the store is the
// online::SnapshotSink the ConstantFinderService hands its results to).
// Query threads acquire the current snapshot with a wait-free seq_cst
// pointer load under an EpochDomain read guard; replaced versions are
// retired into the domain and reclaimed only after the last reader
// epoch that could reference them drains (see serving/epoch.hpp).
//
// A snapshot also carries the plans computed from it (its plan table,
// filled by serving/plan_cache.hpp), so a plan is reachable only through
// the snapshot it was planned from and is freed with it. A new version
// starts with an empty table; nothing is ever invalidated.
//
// Concurrency contract:
//  * one writer per tenant at a time (the service guarantees a tenant is
//    owned by exactly one driver); different tenants publish
//    concurrently — registration and retirement serialize on the
//    domain's writer mutex, the pointer swap itself is a lone atomic
//    exchange;
//  * readers never lock, never retry, and never observe a torn or
//    reclaimed snapshot: versions are strictly monotone per tenant and
//    a Ref pins whatever it acquired until it goes out of scope.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/constant_finder.hpp"
#include "online/service.hpp"
#include "serving/epoch.hpp"

namespace netconst::serving {

struct Plan;  // serving/plan.hpp

/// One published decomposition result. Immutable after publish except
/// for its plan table, which only grows: readers share it freely.
struct ConstantSnapshot {
  /// Plan table slots: 4x the largest per-tenant request-shape set in
  /// use (32), so a probe window practically never fills.
  static constexpr std::size_t kPlanSlots = 128;

  ConstantSnapshot() = default;
  /// Frees the plans in the table with the snapshot.
  ~ConstantSnapshot();
  ConstantSnapshot(const ConstantSnapshot&) = delete;
  ConstantSnapshot& operator=(const ConstantSnapshot&) = delete;

  /// Plans linked in the table right now.
  std::size_t plan_count() const;

  std::string tenant;
  /// Strictly monotone per tenant, starting at 1. The identity clients
  /// key caching on.
  std::uint64_t version = 0;
  /// Refresh ordinal at the service that produced this snapshot.
  std::uint64_t refresh = 0;
  /// Provider time at publication.
  double published_at = 0.0;
  core::ConstantComponent component;
  /// The plans computed from this snapshot: open addressing over
  /// atomic plan pointers, keyed by the canonical request (probed and
  /// filled by PlanCache). A slot goes from null to a plan once and
  /// keeps it until the snapshot is freed.
  mutable std::array<std::atomic<const Plan*>, kPlanSlots> plans{};
};

class SnapshotStore final : public online::SnapshotSink {
 public:
  static constexpr std::size_t kMaxTenants = 64;

  explicit SnapshotStore(EpochDomain& epoch) : epoch_(&epoch) {}
  ~SnapshotStore() override;

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// online::SnapshotSink — called by the service after every accepted
  /// refresh. Registers the tenant on first publish.
  void publish(const std::string& tenant,
               const core::ConstantComponent& component, double provider_now,
               std::uint64_t refresh) override;

  /// A pinned snapshot reference: holds the epoch read guard for its
  /// lifetime, so the pointed-to snapshot cannot be reclaimed while the
  /// Ref is alive. Check operator bool — a tenant that never published
  /// yields an empty Ref.
  class Ref {
   public:
    Ref(EpochDomain::Reader& reader, const SnapshotStore& store,
        std::size_t tenant_index)
        : guard_(reader), snapshot_(store.current(tenant_index)) {}

    explicit operator bool() const { return snapshot_ != nullptr; }
    const ConstantSnapshot& operator*() const { return *snapshot_; }
    const ConstantSnapshot* operator->() const { return snapshot_; }
    const ConstantSnapshot* get() const { return snapshot_; }

   private:
    EpochDomain::ReadGuard guard_;
    const ConstantSnapshot* snapshot_;
  };

  /// Wait-free: pin the current snapshot of tenant slot `tenant_index`
  /// (from find() or publish order). Allocation-free.
  Ref acquire(std::size_t tenant_index, EpochDomain::Reader& reader) const {
    return Ref(reader, *this, tenant_index);
  }

  /// The current snapshot of tenant slot `tenant_index`, nullptr if it
  /// never published. Unpinned: the caller holds a ReadGuard on epoch()
  /// for as long as it uses the pointer (acquire() does both).
  const ConstantSnapshot* current(std::size_t tenant_index) const;

  /// Tenant slot index for a name, or npos. Allocation-free, lock-free
  /// (names are immutable once registered).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(const std::string& tenant) const;

  std::size_t tenant_count() const {
    return count_.load(std::memory_order_acquire);
  }
  const std::string& tenant_name(std::size_t tenant_index) const;
  /// Current version of a tenant slot (0 = never published).
  std::uint64_t version(std::size_t tenant_index) const;

  /// Total snapshots ever published (all tenants).
  std::uint64_t published_total() const {
    return published_total_.load(std::memory_order_relaxed);
  }
  /// Plans the superseded snapshots held when a publish replaced them
  /// (all tenants). A reader still pinning one may add a plan after the
  /// count; it is freed with the snapshot all the same.
  std::uint64_t plans_superseded() const {
    return plans_superseded_.load(std::memory_order_relaxed);
  }

  EpochDomain& epoch() const { return *epoch_; }

  /// Invoked after every publish with (tenant_index, new_version,
  /// plans the superseded snapshot held), on the publishing thread —
  /// telemetry only (the server's publish counters). Set before
  /// traffic.
  using PublishHook =
      std::function<void(std::size_t, std::uint64_t, std::size_t)>;
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

 private:
  struct alignas(64) TenantSlot {
    std::string name;  // immutable once the slot is visible
    std::atomic<const ConstantSnapshot*> current{nullptr};
    std::atomic<std::uint64_t> version{0};
  };

  /// Find-or-register the slot for `tenant` (writer side).
  std::size_t writer_slot(const std::string& tenant);

  EpochDomain* epoch_;
  std::array<TenantSlot, kMaxTenants> slots_;
  std::atomic<std::size_t> count_{0};
  std::mutex register_mutex_;
  std::atomic<std::uint64_t> published_total_{0};
  std::atomic<std::uint64_t> plans_superseded_{0};
  PublishHook publish_hook_;
};

}  // namespace netconst::serving
