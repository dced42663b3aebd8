#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/fingerprint.hpp"

namespace mpct::service {

/// Aggregated (or per-shard) cache accounting.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  /// Resident weight of those entries (ShardedLruCache::entry_bytes);
  /// never above the cache's byte budget.
  std::size_t bytes = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }

  CacheStats& operator+=(const CacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    entries += other.entries;
    bytes += other.bytes;
    return *this;
  }
};

/// Weight of a value the cache knows nothing more about: its own size.
template <typename Value>
std::size_t sizeof_weight(const Value&) {
  return sizeof(Value);
}

/// Sharded, byte-weighted LRU result cache keyed by canonical request
/// fingerprint.
///
/// Sharding bounds contention: a lookup locks only the shard the key
/// hashes to, so concurrent workers touching different shards never
/// serialise.  Each shard is an independent LRU (intrusive list + hash
/// map, both O(1)).  The byte budget is split evenly over the shards and
/// eviction is per shard: an entry weighs entry_bytes(value) — what
/// @p weigh says the value holds plus kEntryOverhead — and put() evicts
/// from the shard's LRU tail until the shard's entries fit its share.
/// The budget is a ceiling, not a reservation: nothing is allocated up
/// front.
///
/// Values are held as shared_ptr<const Value>: a hit hands the caller a
/// reference to the immutable cached object without copying it under the
/// shard lock, and eviction while a reader still holds the pointer is
/// safe.
template <typename Value,
          std::size_t (*weigh)(const Value&) = &sizeof_weight<Value>>
class ShardedLruCache {
 public:
  /// What an entry costs beyond its value, with malloc's rounding: the
  /// recency-list node (80 B), the index node (32 B) and its bucket
  /// slot (8 B), and the shared_ptr control block allocated with the
  /// value (16 B, plus up to 16 B of rounding on that block).
  static constexpr std::size_t kEntryOverhead = 152;

  /// The weight an entry holding @p value is charged against the budget.
  static std::size_t entry_bytes(const Value& value) {
    return weigh(value) + kEntryOverhead;
  }

  /// shard_count is rounded up to a power of two (so shard selection is a
  /// mask, not a modulo) and clamped to >= 1; each shard gets
  /// budget_bytes / shard_count() bytes.
  ShardedLruCache(std::size_t shard_count, std::size_t budget_bytes)
      : shards_(round_up_pow2(shard_count == 0 ? 1 : shard_count)),
        shard_budget_(budget_bytes / shards_.size()) {}

  std::shared_ptr<const Value> get(Fingerprint key) {
    return get(key, nullptr);
  }

  /// Lookup that also reports how long ago the entry was inserted (or
  /// last refreshed by put()) — what the engine's soft-TTL ladder
  /// compares against.  @p age_out may be null.
  std::shared_ptr<const Value> get(Fingerprint key,
                                   std::chrono::steady_clock::duration* age_out) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return nullptr;
    }
    // Move to the front of the recency list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.stats.hits;
    if (age_out) {
      *age_out = std::chrono::steady_clock::now() - it->second->inserted;
    }
    return it->second->value;
  }

  /// Insert (or refresh, replacing its weight) an entry, then evict
  /// the shard's least recently used entries until the shard fits its
  /// budget again.  An entry heavier than a whole shard's budget is
  /// refused: the cache is left exactly as it was.
  void put(Fingerprint key, std::shared_ptr<const Value> value) {
    const std::size_t weight = entry_bytes(*value);
    if (weight > shard_budget_) return;
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto now = std::chrono::steady_clock::now();
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      Entry& entry = *it->second;
      shard.stats.bytes = shard.stats.bytes - entry.weight + weight;
      entry.value = std::move(value);
      entry.weight = weight;
      entry.inserted = now;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), weight, now});
      shard.index.emplace(key, shard.lru.begin());
      shard.stats.bytes += weight;
      ++shard.stats.insertions;
    }
    // Never evicts the entry just put: alone it fits (weight <= budget).
    while (shard.stats.bytes > shard_budget_) {
      const Entry& victim = shard.lru.back();
      shard.stats.bytes -= victim.weight;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
  }

  void put(Fingerprint key, Value value) {
    put(key, std::make_shared<const Value>(std::move(value)));
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
      shard.stats.bytes = 0;
    }
  }

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_budget_bytes() const { return shard_budget_; }
  std::size_t budget_bytes() const { return shards_.size() * shard_budget_; }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.lru.size();
    }
    return total;
  }

  CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      CacheStats s = shard.stats;
      s.entries = shard.lru.size();
      total += s;
    }
    return total;
  }

  std::vector<CacheStats> shard_stats() const {
    std::vector<CacheStats> out;
    out.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      CacheStats s = shard.stats;
      s.entries = shard.lru.size();
      out.push_back(s);
    }
    return out;
  }

 private:
  struct Entry {
    Fingerprint key = 0;
    std::shared_ptr<const Value> value;
    std::size_t weight = 0;  ///< entry_bytes(*value)
    /// Insert/refresh time — what get(key, &age) measures against.
    std::chrono::steady_clock::time_point inserted{};
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Fingerprint, typename std::list<Entry>::iterator> index;
    CacheStats stats;  ///< entries is filled in by stats()
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  Shard& shard_for(Fingerprint key) {
    // The fingerprint is already well mixed (FNV-1a); fold the high bits
    // down so shard choice uses entropy the in-shard hash map does not.
    const std::uint64_t folded = key ^ (key >> 32);
    return shards_[folded & (shards_.size() - 1)];
  }

  std::vector<Shard> shards_;
  const std::size_t shard_budget_;
};

}  // namespace mpct::service
