#include "core/cast_cache.h"

#include <chrono>
#include <cstdlib>
#include <limits>

#include "core/exec_context.h"

namespace bigdawg::core {

namespace {
// Coalesced waiters re-check their context at this cadence (the same
// slice InterruptibleBackoff uses), so cancellation and deadlines cut a
// wait short even when the leader is parked on a FakeClock.
constexpr std::chrono::milliseconds kWaitSlice{1};
}  // namespace

const char* CastTargetName(CastTarget target) {
  switch (target) {
    case CastTarget::kTable:
      return "relation";
    case CastTarget::kArray:
      return "array";
    case CastTarget::kAssoc:
      return "assoc";
  }
  return "?";
}

const char* CastCacheOutcomeName(CastCacheOutcome outcome) {
  switch (outcome) {
    case CastCacheOutcome::kHit:
      return "hit";
    case CastCacheOutcome::kMiss:
      return "miss";
    case CastCacheOutcome::kCoalesced:
      return "coalesced";
  }
  return "?";
}

std::string CastCacheKey::ToString() const {
  std::string out = object + "@v" + std::to_string(version) + "#" +
                    std::to_string(instance_id) + "->" + CastTargetName(target);
  if (!params.empty()) out += "(" + params + ")";
  return out;
}

CastCache::CastCache() {
  const char* env = std::getenv("BIGDAWG_CAST_CACHE");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') enabled_ = false;
}

bool CastCache::enabled() const {
  std::lock_guard lock(mu_);
  return enabled_;
}

void CastCache::SetEnabled(bool enabled) {
  std::lock_guard lock(mu_);
  if (enabled_ && !enabled) DropAllLocked();
  enabled_ = enabled;
}

int64_t CastCache::max_bytes() const {
  std::lock_guard lock(mu_);
  return max_bytes_;
}

void CastCache::SetMaxBytes(int64_t max_bytes) {
  std::lock_guard lock(mu_);
  max_bytes_ = max_bytes;
  while (bytes_ > max_bytes_ && !lru_.empty()) EvictOneLocked();
  PublishGaugesLocked();
}

void CastCache::SetClock(const obs::Clock* clock) {
  std::lock_guard lock(mu_);
  clock_ = clock;
}

void CastCache::Clear() {
  std::lock_guard lock(mu_);
  DropAllLocked();
}

Result<CastCache::CachedValue> CastCache::DoGetOrCompute(
    const CastCacheKey& key,
    const std::function<Result<CachedValue>()>& compute,
    const std::function<bool()>& still_current, const ExecContext* waiter_ctx,
    CastCacheOutcome* outcome) {
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Hit: bump to the LRU front and hand out the shared pointer.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++it->second.hits;
      ++hits_;
      if (m_hits_ != nullptr) m_hits_->Increment();
      *outcome = CastCacheOutcome::kHit;
      return it->second.value;
    }
    std::shared_ptr<Flight>& slot = flights_[key];
    if (slot == nullptr) {
      slot = std::make_shared<Flight>();
      leader = true;
      ++misses_;
      if (m_misses_ != nullptr) m_misses_->Increment();
    } else {
      ++coalesced_;
      if (m_coalesced_ != nullptr) m_coalesced_->Increment();
    }
    flight = slot;
  }

  if (!leader) {
    *outcome = CastCacheOutcome::kCoalesced;
    std::unique_lock flight_lock(flight->mu);
    while (!flight->done) {
      if (waiter_ctx != nullptr) {
        Status interrupted = waiter_ctx->Check();
        // Abandoning the wait leaves the leader to finish (and cache) on
        // its own; this caller just stops waiting for it.
        if (!interrupted.ok()) return interrupted;
      }
      flight->cv.wait_for(flight_lock, kWaitSlice);
    }
    if (!flight->status.ok()) return flight->status;
    return flight->value;
  }

  *outcome = CastCacheOutcome::kMiss;
  // The conversion runs with no cache lock held: it may touch engines,
  // take engine locks, or recurse into the cache under a different key.
  Result<CachedValue> computed = compute();
  // Sized before taking the lock: the first measurement of a fresh block
  // scans it (later ones read the block-carried memo).
  const int64_t bytes =
      computed.ok() ? std::visit([](const auto& handle) { return handle.ByteSize(); },
                                 *computed)
                    : 0;
  // Insert only while the catalog still shows the (instance, version) the
  // key was built from; a write that raced the conversion makes the entry
  // unreachable at best and mixed-version at worst, so skip it.
  const bool insertable =
      computed.ok() && (still_current == nullptr || still_current());
  {
    std::lock_guard lock(mu_);
    auto it = flights_.find(key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
    if (insertable && enabled_) {
      InsertLocked(key, *computed, bytes);
    }
  }
  {
    std::lock_guard flight_lock(flight->mu);
    flight->done = true;
    if (computed.ok()) {
      flight->value = *computed;
    } else {
      // Errors are never cached; waiters see this status and the dropped
      // flight means the next request retries from scratch.
      flight->status = computed.status();
    }
  }
  flight->cv.notify_all();
  return computed;
}

bool CastCache::Contains(const CastCacheKey& key) const {
  std::lock_guard lock(mu_);
  return entries_.count(key) > 0;
}

std::vector<CastCacheEntryView> CastCache::DumpEntries() const {
  std::lock_guard lock(mu_);
  std::vector<CastCacheEntryView> out;
  out.reserve(entries_.size());
  const obs::Clock::TimePoint now = clock_->Now();
  for (const CastCacheKey& key : lru_) {
    const Entry& entry = entries_.at(key);
    out.push_back({key, entry.bytes, entry.hits,
                   obs::Clock::ToMillis(now - entry.inserted_at)});
  }
  return out;
}

CastCacheStats CastCache::Stats() const {
  std::lock_guard lock(mu_);
  CastCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.coalesced_waits = coalesced_;
  stats.evictions = evictions_;
  stats.insertions = insertions_;
  stats.bytes = bytes_;
  stats.entries = static_cast<int64_t>(entries_.size());
  return stats;
}

void CastCache::BindMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard lock(mu_);
  m_hits_ = registry->GetCounter(
      obs::SeriesName("bigdawg_cast_cache_events_total", {{"event", "hit"}}));
  m_misses_ = registry->GetCounter(
      obs::SeriesName("bigdawg_cast_cache_events_total", {{"event", "miss"}}));
  m_coalesced_ = registry->GetCounter(obs::SeriesName(
      "bigdawg_cast_cache_events_total", {{"event", "coalesced_wait"}}));
  m_evictions_ = registry->GetCounter(obs::SeriesName(
      "bigdawg_cast_cache_events_total", {{"event", "eviction"}}));
  m_bytes_ = registry->GetGauge("bigdawg_cast_cache_bytes");
  m_entries_ = registry->GetGauge("bigdawg_cast_cache_entries");
  PublishGaugesLocked();
}

void CastCache::InsertLocked(const CastCacheKey& key, CachedValue value,
                             int64_t bytes) {
  // An entry bigger than the whole budget would evict everything and then
  // not fit; don't cache it.
  if (bytes > max_bytes_) return;
  if (entries_.count(key) > 0) return;
  // Versions only grow, so an older version of the same cast can never be
  // looked up again: drop it now rather than let it hold budget until LRU
  // reaches it. (A newer one already resident makes this insert the stale
  // one.) Keys sort by object, then instance id, so the scan is confined
  // to this object's instance.
  const CastCacheKey first{key.object, key.instance_id,
                           std::numeric_limits<int64_t>::min(), CastTarget::kTable, ""};
  for (auto it = entries_.lower_bound(first);
       it != entries_.end() && it->first.object == key.object &&
       it->first.instance_id == key.instance_id;) {
    const CastCacheKey& other = it->first;
    if (other.target != key.target || other.params != key.params) {
      ++it;
      continue;
    }
    if (other.version > key.version) return;
    it = EraseLocked(it);
  }
  lru_.push_front(key);
  Entry entry;
  entry.value = std::move(value);
  entry.bytes = bytes;
  entry.inserted_at = clock_->Now();
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > max_bytes_ && !lru_.empty()) EvictOneLocked();
  PublishGaugesLocked();
}

void CastCache::EvictOneLocked() { EraseLocked(entries_.find(lru_.back())); }

std::map<CastCacheKey, CastCache::Entry>::iterator CastCache::EraseLocked(
    std::map<CastCacheKey, Entry>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  ++evictions_;
  if (m_evictions_ != nullptr) m_evictions_->Increment();
  return entries_.erase(it);
}

void CastCache::DropAllLocked() {
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  PublishGaugesLocked();
}

void CastCache::PublishGaugesLocked() {
  if (m_bytes_ != nullptr) m_bytes_->Set(static_cast<double>(bytes_));
  if (m_entries_ != nullptr) {
    m_entries_->Set(static_cast<double>(entries_.size()));
  }
}

}  // namespace bigdawg::core
