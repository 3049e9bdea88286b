#include "serving/snapshot_store.hpp"

#include "obs/trace.hpp"
#include "serving/plan.hpp"
#include "support/error.hpp"

namespace netconst::serving {

ConstantSnapshot::~ConstantSnapshot() {
  // No reader can reach the snapshot any more (the epoch domain
  // reclaimed it, or it was never published), so none can reach its
  // plans.
  for (const std::atomic<const Plan*>& slot : plans) {
    delete slot.load(std::memory_order_seq_cst);
  }
}

std::size_t ConstantSnapshot::plan_count() const {
  std::size_t count = 0;
  for (const std::atomic<const Plan*>& slot : plans) {
    if (slot.load(std::memory_order_seq_cst) != nullptr) ++count;
  }
  return count;
}

SnapshotStore::~SnapshotStore() {
  // Retire every live snapshot; the domain frees them (immediately if
  // quiescent, else when the last reader drains — the domain must
  // outlive the store's readers by contract).
  const std::size_t count = count_.load(std::memory_order_acquire);
  for (std::size_t k = 0; k < count; ++k) {
    epoch_->retire(
        slots_[k].current.exchange(nullptr, std::memory_order_seq_cst));
  }
  epoch_->reclaim();
}

std::size_t SnapshotStore::writer_slot(const std::string& tenant) {
  const std::size_t count = count_.load(std::memory_order_acquire);
  for (std::size_t k = 0; k < count; ++k) {
    if (slots_[k].name == tenant) return k;
  }
  std::lock_guard<std::mutex> lock(register_mutex_);
  // Re-check under the lock: another writer may have registered it.
  const std::size_t recheck = count_.load(std::memory_order_acquire);
  for (std::size_t k = 0; k < recheck; ++k) {
    if (slots_[k].name == tenant) return k;
  }
  NETCONST_CHECK(recheck < kMaxTenants,
                 "SnapshotStore tenant limit (kMaxTenants) exceeded");
  slots_[recheck].name = tenant;
  // The name must be fully written before the slot becomes visible.
  count_.store(recheck + 1, std::memory_order_release);
  return recheck;
}

void SnapshotStore::publish(const std::string& tenant,
                            const core::ConstantComponent& component,
                            double provider_now, std::uint64_t refresh) {
  obs::Span span("serving.publish");
  const std::size_t slot_index = writer_slot(tenant);
  TenantSlot& slot = slots_[slot_index];

  auto* snapshot = new ConstantSnapshot;
  snapshot->tenant = tenant;
  // One writer per tenant: the version counter is only advanced here.
  snapshot->version = slot.version.load(std::memory_order_relaxed) + 1;
  snapshot->refresh = refresh;
  snapshot->published_at = provider_now;
  snapshot->component = component;

  const ConstantSnapshot* old =
      slot.current.exchange(snapshot, std::memory_order_seq_cst);
  slot.version.store(snapshot->version, std::memory_order_release);
  published_total_.fetch_add(1, std::memory_order_relaxed);
  span.set_value(static_cast<double>(snapshot->version));

  // `old` is ours until it is retired below, so its table is safe to
  // count even while readers still pinning it add plans.
  const std::size_t superseded_plans = old == nullptr ? 0 : old->plan_count();
  plans_superseded_.fetch_add(superseded_plans, std::memory_order_relaxed);
  if (publish_hook_) {
    publish_hook_(slot_index, snapshot->version, superseded_plans);
  }
  epoch_->retire(old);
  epoch_->reclaim();
}

const ConstantSnapshot* SnapshotStore::current(
    std::size_t tenant_index) const {
  return tenant_index < count_.load(std::memory_order_acquire)
             ? slots_[tenant_index].current.load(std::memory_order_seq_cst)
             : nullptr;
}

std::size_t SnapshotStore::find(const std::string& tenant) const {
  const std::size_t count = count_.load(std::memory_order_acquire);
  for (std::size_t k = 0; k < count; ++k) {
    if (slots_[k].name == tenant) return k;
  }
  return npos;
}

const std::string& SnapshotStore::tenant_name(
    std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenant_count(),
                 "tenant slot out of range");
  return slots_[tenant_index].name;
}

std::uint64_t SnapshotStore::version(std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenant_count(),
                 "tenant slot out of range");
  return slots_[tenant_index].version.load(std::memory_order_acquire);
}

}  // namespace netconst::serving
