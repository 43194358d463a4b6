#ifndef BIGDAWG_CORE_CAST_CACHE_H_
#define BIGDAWG_CORE_CAST_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "core/cast.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace bigdawg::core {

struct ExecContext;

/// \brief Target model of a cached cast result — one slot per fetch
/// surface (FetchAsTable / FetchAsArray / FetchAsAssoc).
enum class CastTarget : int { kTable = 0, kArray = 1, kAssoc = 2 };

const char* CastTargetName(CastTarget target);

/// \brief Cache key for one cast result.
///
/// `version` is the primary version read from the catalog *before* the
/// fetch, and `instance_id` pins the registration (Remove + Register
/// resets the version to 0 with arbitrary new data; the id makes such a
/// key unreachable instead of wrong). Because writes bump the version,
/// stale entries are never looked up again: inserting a version drops
/// every lower version of the same (object, instance_id, target, params)
/// as an eviction, and entries of an old instance age out via LRU.
struct CastCacheKey {
  std::string object;
  int64_t instance_id = 0;
  int64_t version = 0;
  CastTarget target = CastTarget::kTable;
  /// Cast parameters (chunk lengths etc.); "" means the defaults every
  /// current fetch path uses.
  std::string params;

  bool operator<(const CastCacheKey& o) const {
    return std::tie(object, instance_id, version, target, params) <
           std::tie(o.object, o.instance_id, o.version, o.target, o.params);
  }
  bool operator==(const CastCacheKey& o) const {
    return object == o.object && instance_id == o.instance_id &&
           version == o.version && target == o.target && params == o.params;
  }

  /// Display form: `object@v3#1->array` (params appended when non-empty).
  std::string ToString() const;
};

/// \brief How the cache served one request.
enum class CastCacheOutcome : int { kHit = 0, kMiss = 1, kCoalesced = 2 };

const char* CastCacheOutcomeName(CastCacheOutcome outcome);

/// \brief One entry as dumped by the /cache admin endpoint.
struct CastCacheEntryView {
  CastCacheKey key;
  int64_t bytes = 0;
  int64_t hits = 0;
  double age_ms = 0.0;
};

/// \brief Point-in-time totals since construction.
struct CastCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t coalesced_waits = 0;
  int64_t evictions = 0;
  int64_t insertions = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
};

/// \brief A shared, bytes-bounded LRU cache of cast results with
/// single-flight coalescing.
///
/// Every query containing a CAST used to re-fetch and re-convert its
/// source object; with N clients issuing the same cross-island query that
/// is N full conversions of identical data. This cache stores the
/// converted result keyed by (object, instance id, version, target model,
/// params) so repeated casts of unwritten data cost one map lookup and a
/// zero-copy handle share: Table / Array / AssocArray are copy-on-write
/// handles over immutable refcounted blocks, so handing a hit back to the
/// caller swaps a pointer instead of deep-copying rows or chunks, and the
/// type system guarantees the cached block itself is never mutated — a
/// caller's first write thaws a private clone.
///
/// Single-flight: when K threads request the same uncached key, exactly
/// one (the leader) runs the conversion while the rest block on its
/// result. Waiters poll their ExecContext in ~1 ms slices, so deadlines
/// and cancellation interrupt the wait even under a FakeClock. A leader
/// error propagates to every waiter and is NOT cached — the flight is
/// dropped so the next request retries; a failed or fault-injected cast
/// can never poison the cache.
///
/// Results are inserted only when the catalog still shows the version the
/// key was built from (`still_current`), so a write racing the conversion
/// at worst wastes the insert; it can never cause a reader to observe
/// data older than the version it read.
///
/// Thread-safe. Disabled entirely when the environment variable
/// BIGDAWG_CAST_CACHE=0 is set at construction time.
class CastCache {
 public:
  static constexpr int64_t kDefaultMaxBytes = 64ll << 20;  // 64 MiB

  CastCache();

  CastCache(const CastCache&) = delete;
  CastCache& operator=(const CastCache&) = delete;

  bool enabled() const;
  /// Disabling drops every entry; re-enabling starts cold.
  void SetEnabled(bool enabled);

  int64_t max_bytes() const;
  /// Shrinking evicts LRU entries until the budget fits.
  void SetMaxBytes(int64_t max_bytes);

  /// Time source for entry ages (the /cache endpoint); defaults to the
  /// system clock.
  void SetClock(const obs::Clock* clock);

  void Clear();

  /// \brief The cached handle for `key`, or computes it exactly once
  /// across concurrent callers.
  ///
  /// `compute` runs with no cache lock held (it may fetch from engines,
  /// recurse into the cache under a different key, take engine locks);
  /// its result is sized by the block-carried T::ByteSize().
  /// `still_current` is consulted after a successful compute; returning
  /// false skips the insert (the result is still returned to callers).
  /// `waiter_ctx` (may be null) lets a coalesced waiter honor
  /// deadline/cancellation. `outcome` reports hit/miss/coalesced;
  /// `bytes_out` (optional) the entry's byte estimate.
  template <typename T>
  Result<T> GetOrCompute(const CastCacheKey& key,
                         const std::function<Result<T>()>& compute,
                         const std::function<bool()>& still_current,
                         const ExecContext* waiter_ctx,
                         CastCacheOutcome* outcome,
                         int64_t* bytes_out = nullptr) {
    Result<CachedValue> got = DoGetOrCompute(
        key,
        [&compute]() -> Result<CachedValue> {
          Result<T> r = compute();
          if (!r.ok()) return r.status();
          return CachedValue(std::move(*r));
        },
        still_current, waiter_ctx, outcome);
    if (!got.ok()) return got.status();
    T value = std::get<T>(std::move(*got));
    if (bytes_out != nullptr) *bytes_out = value.ByteSize();
    return value;
  }

  /// True when `key` is resident. No stats or LRU effect — this is the
  /// non-counting probe EXPLAIN uses to annotate cast plans.
  bool Contains(const CastCacheKey& key) const;

  /// Entries in LRU order (most recently used first).
  std::vector<CastCacheEntryView> DumpEntries() const;

  CastCacheStats Stats() const;

  /// Resolves hit/miss/eviction/coalesced counters and the bytes/entries
  /// gauges in `registry` (family bigdawg_cast_cache_*). Events before
  /// binding are not replayed; the query service binds at construction,
  /// ahead of any traffic.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  /// The copy-on-write handles themselves: a hit shares the cached block,
  /// and a caller's first write thaws a private clone.
  using CachedValue = ModelValue;

  /// One in-progress computation; waiters block on `cv` until `done`.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    CachedValue value;
  };

  struct Entry {
    CachedValue value;
    int64_t bytes = 0;
    int64_t hits = 0;
    obs::Clock::TimePoint inserted_at{};
    std::list<CastCacheKey>::iterator lru_it;
  };

  Result<CachedValue> DoGetOrCompute(
      const CastCacheKey& key,
      const std::function<Result<CachedValue>()>& compute,
      const std::function<bool()>& still_current,
      const ExecContext* waiter_ctx, CastCacheOutcome* outcome);

  void InsertLocked(const CastCacheKey& key, CachedValue value, int64_t bytes);
  void EvictOneLocked();
  /// Removes one entry, counting it as an eviction.
  std::map<CastCacheKey, Entry>::iterator EraseLocked(
      std::map<CastCacheKey, Entry>::iterator it);
  void DropAllLocked();
  void PublishGaugesLocked();

  mutable std::mutex mu_;
  bool enabled_ = true;
  int64_t max_bytes_ = kDefaultMaxBytes;
  int64_t bytes_ = 0;
  std::map<CastCacheKey, Entry> entries_;
  std::list<CastCacheKey> lru_;  // front = most recently used
  std::map<CastCacheKey, std::shared_ptr<Flight>> flights_;
  const obs::Clock* clock_ = obs::Clock::System();

  // Totals (guarded by mu_).
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t coalesced_ = 0;
  int64_t evictions_ = 0;
  int64_t insertions_ = 0;

  // Bound registry slots; null until BindMetrics.
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_coalesced_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Gauge* m_bytes_ = nullptr;
  obs::Gauge* m_entries_ = nullptr;
};

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_CAST_CACHE_H_
