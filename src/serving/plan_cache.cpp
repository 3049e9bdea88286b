#include "serving/plan_cache.hpp"

#include "obs/trace.hpp"

namespace netconst::serving {

namespace {

static_assert((ConstantSnapshot::kPlanSlots &
               (ConstantSnapshot::kPlanSlots - 1)) == 0,
              "plan table slots must be a power of two");
static_assert(PlanCache::kProbeWindow <= ConstantSnapshot::kPlanSlots);

constexpr std::size_t kSlotMask = ConstantSnapshot::kPlanSlots - 1;

}  // namespace

const Plan* PlanCache::probe(const ConstantSnapshot& snapshot,
                             std::uint64_t hash,
                             const PlanRequest& request) {
  for (std::size_t k = 0; k < kProbeWindow; ++k) {
    const Plan* plan =
        snapshot.plans[(hash + k) & kSlotMask].load(std::memory_order_seq_cst);
    if (plan == nullptr) return nullptr;  // slots fill in probe order
    if (plan->request == request) return plan;
  }
  return nullptr;
}

const Plan* PlanCache::find(std::size_t tenant_index, std::uint64_t version,
                            const PlanRequest& request) const {
  const ConstantSnapshot* snapshot = store_->current(tenant_index);
  if (snapshot == nullptr || snapshot->version != version) return nullptr;
  const Plan* plan = probe(*snapshot, plan_request_hash(request), request);
  if (plan != nullptr) hits_.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

const Plan* PlanCache::lookup_or_compute(std::size_t /*tenant_index*/,
                                         const ConstantSnapshot& snapshot,
                                         const PlanRequest& request) {
  const std::uint64_t hash = plan_request_hash(request);
  if (const Plan* cached = probe(snapshot, hash, request)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }

  // Miss: plan outside any lock — planning dominates, and concurrent
  // identical misses just race to link (the loser deletes its copy).
  obs::Span span("serving.plan.compute");
  const Plan* fresh = new Plan(compute_plan(snapshot, request));
  span.set_value(static_cast<double>(request.nodes.size()));

  for (std::size_t k = 0; k < kProbeWindow; ++k) {
    std::atomic<const Plan*>& slot = snapshot.plans[(hash + k) & kSlotMask];
    const Plan* current = nullptr;
    if (slot.compare_exchange_strong(current, fresh,
                                     std::memory_order_seq_cst)) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return fresh;
    }
    if (current->request == request) {
      // An identical insert won the race; ours was never visible.
      insert_races_.fetch_add(1, std::memory_order_relaxed);
      delete fresh;
      return current;
    }
  }

  // Probe window full: serve the plan anyway. Retiring it now is safe —
  // the caller's read guard pins it until released.
  uncached_.fetch_add(1, std::memory_order_relaxed);
  store_->epoch().retire(fresh);
  return fresh;
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.uncached = uncached_.load(std::memory_order_relaxed);
  stats.insert_races = insert_races_.load(std::memory_order_relaxed);
  stats.invalidated = store_->plans_superseded();
  return stats;
}

}  // namespace netconst::serving
