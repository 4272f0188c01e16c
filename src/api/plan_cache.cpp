#include "api/plan_cache.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace atalib::api {

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const AtaPlan> PlanCache::get_or_build(const PlanKey& key) {
  Future fut;
  // Deferred: the hot hit path must not pay the promise's shared-state
  // allocation — it is only materialized on a miss.
  std::optional<std::promise<std::shared_ptr<const AtaPlan>>> prom;
  {
    MutexLock lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // promote to MRU
      fut = it->second.plan;
    } else {
      ++misses_;
      prom.emplace();
      fut = prom->get_future().share();
      lru_.push_front(key);
      map_.emplace(key, Entry{fut, lru_.begin()});
      while (map_.size() > capacity_) {
        // Evict the coldest entry whose build has completed. An in-flight
        // entry must survive — dropping it would let a concurrent request
        // for the same key start a duplicate build, breaking the
        // build-exactly-once guarantee. The budget may therefore be
        // exceeded transiently, by at most the number of concurrent cold
        // builds; the next miss retries the eviction.
        auto victim = lru_.end();
        for (auto lit = std::prev(lru_.end());; --lit) {
          if (map_.find(*lit)->second.ready) {
            victim = lit;
            break;
          }
          if (lit == lru_.begin()) break;
        }
        if (victim == lru_.end()) break;  // every entry still building
        map_.erase(*victim);
        lru_.erase(victim);
        ++evictions_;
      }
    }
  }
  if (prom) {
    // Eviction skips in-flight entries and only the builder removes one, so
    // the entry inserted above is still resident when the build returns.
    try {
      prom->set_value(AtaPlan::build(key));
      MutexLock lk(mu_);
      map_.find(key)->second.ready = true;  // now evictable
    } catch (...) {
      {
        // Forget the failed entry so the next request retries.
        MutexLock lk(mu_);
        const auto it = map_.find(key);
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
      prom->set_exception(std::current_exception());
    }
  }
  return fut.get();  // blocks on a concurrent builder; rethrows build errors
}

bool PlanCache::contains(const PlanKey& key) const {
  MutexLock lk(mu_);
  return map_.find(key) != map_.end();
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lk(mu_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = map_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace atalib::api
