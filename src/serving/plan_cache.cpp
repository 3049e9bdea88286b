#include "serving/plan_cache.hpp"

#include "obs/trace.hpp"
#include "support/error.hpp"

namespace netconst::serving {

namespace {

std::size_t round_up_pow2(std::size_t value) {
  std::size_t pow2 = 64;
  while (pow2 < value) pow2 <<= 1;
  return pow2;
}

}  // namespace

PlanCache::PlanCache(EpochDomain& epoch, std::size_t capacity)
    : epoch_(&epoch),
      mask_(round_up_pow2(capacity) - 1),
      table_(mask_ + 1),
      invalidate_reader_(epoch) {}

PlanCache::~PlanCache() {
  for (std::atomic<const Entry*>& slot : table_) {
    epoch_->retire(slot.exchange(nullptr, std::memory_order_seq_cst));
  }
  epoch_->reclaim();
}

bool PlanCache::matches(const Entry& entry, std::uint64_t hash,
                        std::size_t tenant_index, std::uint64_t version,
                        const PlanRequest& request) const {
  return entry.hash == hash && entry.tenant == tenant_index &&
         entry.plan.version == version && entry.plan.request == request;
}

const Plan* PlanCache::find(std::size_t tenant_index, std::uint64_t version,
                            const PlanRequest& request) const {
  const std::uint64_t hash =
      plan_request_hash(tenant_index, version, request);
  for (std::size_t k = 0; k < kProbeWindow; ++k) {
    const Entry* entry =
        table_[(hash + k) & mask_].load(std::memory_order_seq_cst);
    if (entry != nullptr &&
        matches(*entry, hash, tenant_index, version, request)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return &entry->plan;
    }
  }
  return nullptr;
}

const Plan* PlanCache::lookup_or_compute(std::size_t tenant_index,
                                         const ConstantSnapshot& snapshot,
                                         const PlanRequest& request) {
  if (const Plan* cached = find(tenant_index, snapshot.version, request)) {
    return cached;
  }

  // Miss: plan outside any lock — planning dominates, and concurrent
  // identical misses just race to insert (loser retires its copy).
  obs::Span span("serving.plan.compute");
  const std::uint64_t hash =
      plan_request_hash(tenant_index, snapshot.version, request);
  auto* fresh = new Entry;
  fresh->hash = hash;
  fresh->tenant = tenant_index;
  fresh->plan = compute_plan(snapshot, request);
  span.set_value(static_cast<double>(request.nodes.size()));

  for (std::size_t k = 0; k < kProbeWindow; ++k) {
    std::atomic<const Entry*>& slot = table_[(hash + k) & mask_];
    const Entry* current = slot.load(std::memory_order_seq_cst);
    for (;;) {
      if (current != nullptr &&
          matches(*current, hash, tenant_index, snapshot.version,
                  request)) {
        // An identical insert won the race; ours was never visible.
        insert_races_.fetch_add(1, std::memory_order_relaxed);
        const Plan* winner = &current->plan;
        delete fresh;
        return winner;
      }
      const bool empty = current == nullptr;
      // A same-tenant entry of an older version is dead weight (its
      // version can never be queried through the store again): replace
      // it in place instead of walking further.
      const bool stale = current != nullptr &&
                         current->tenant == tenant_index &&
                         current->plan.version < snapshot.version;
      if (!empty && !stale) break;  // occupied by live data; next slot
      if (slot.compare_exchange_strong(current, fresh,
                                       std::memory_order_seq_cst)) {
        if (stale) {
          epoch_->retire(current);
          replaced_.fetch_add(1, std::memory_order_relaxed);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        drop_if_superseded(slot, fresh);
        return &fresh->plan;
      }
      // CAS refreshed `current`; re-evaluate the slot.
    }
  }

  // Probe window exhausted: serve the plan anyway. Retiring the entry
  // now is safe — the caller's read guard pins it until released.
  uncached_.fetch_add(1, std::memory_order_relaxed);
  const Plan* plan = &fresh->plan;
  epoch_->retire(static_cast<const Entry*>(fresh));
  return plan;
}

std::size_t PlanCache::invalidate_below(std::size_t tenant_index,
                                        std::uint64_t version) {
  // The scan dereferences entries it has not unlinked yet, so it must
  // run under an epoch read guard: without one, a query thread can
  // stale-replace and retire the entry we just loaded, and a concurrent
  // publish for another tenant can reclaim() it — a use-after-free on
  // the key compare, and (if the freed address is reused by a new
  // insert in the same slot) an ABA double-retire on the CAS. The guard
  // pins every entry loaded below until the scan finishes. Publishing
  // threads hold no Reader of their own, so the cache keeps one slot
  // for this purpose; the mutex serializes concurrent invalidators
  // (different-tenant publishes) onto it.
  std::lock_guard<std::mutex> lock(invalidate_mutex_);
  std::uint64_t& floor = floors_[tenant_index];
  if (version > floor) floor = version;
  EpochDomain::ReadGuard guard(invalidate_reader_);
  std::size_t dropped = 0;
  for (std::atomic<const Entry*>& slot : table_) {
    const Entry* entry = slot.load(std::memory_order_seq_cst);
    if (entry == nullptr || entry->tenant != tenant_index ||
        entry->plan.version >= version) {
      continue;
    }
    if (slot.compare_exchange_strong(entry, nullptr,
                                     std::memory_order_seq_cst)) {
      epoch_->retire(entry);
      ++dropped;
    }
  }
  if (dropped > 0) {
    invalidated_.fetch_add(dropped, std::memory_order_relaxed);
  }
  return dropped;
}

void PlanCache::drop_if_superseded(std::atomic<const Entry*>& slot,
                                   const Entry* entry) {
  // Under the mutex, either the sweep for a newer version runs after
  // this insert (and unlinks the entry itself), or its floor is visible
  // here. The caller's read guard keeps `entry` from being reclaimed,
  // so the CAS below cannot hit a reused address.
  std::lock_guard<std::mutex> lock(invalidate_mutex_);
  const auto floor = floors_.find(entry->tenant);
  if (floor == floors_.end() || entry->plan.version >= floor->second) return;
  const Entry* expected = entry;
  if (slot.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_seq_cst)) {
    epoch_->retire(entry);
    invalidated_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t PlanCache::size() const {
  std::size_t count = 0;
  for (const std::atomic<const Entry*>& slot : table_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.uncached = uncached_.load(std::memory_order_relaxed);
  stats.insert_races = insert_races_.load(std::memory_order_relaxed);
  stats.invalidated = invalidated_.load(std::memory_order_relaxed);
  stats.replaced = replaced_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace netconst::serving
