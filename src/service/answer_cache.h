// Copyright (c) the XKeyword authors.
//
// AnswerCache: the serving layer's whole-answer cache. Keyword workloads
// are highly repetitive (Zipfian keyword popularity), so QueryService keeps
// every completed QueryResponse keyed by a canonicalized request
// fingerprint; a repeated query is answered from memory without touching
// the engine at all — the serving-side counterpart of the paper's
// materialized connection relations and partial-result cache (Section 6).
//
// Key canonicalization: two requests share an answer iff they ask the same
// logical question. The key is built from the keyword list in request order
// (the MTTON object order and the order among equal scores follow it, and
// duplicate keywords add filter sets), the decomposition,
// the execution mode, and every option that shapes the result list (Z,
// network-size bound, per-network and global k).
// Performance knobs (threads, partial-result caching, Bloom pruning) are
// excluded: results are byte-identical across them.
// Deadlines, cache_mode and the anytime cost budget are excluded too — a
// budget changes whether an answer completes, not what the complete answer
// is (only Completeness::kComplete answers are cached).
//
// Epoch invalidation: every entry is tagged with the data generation
// (XKeyword::data_generation()) it was computed under. The cache never
// chases pointers into the engine; a reload/decomposition change simply
// bumps the generation and every older answer reports kStale on its next
// lookup (and is erased then). Invalidation is O(1) and atomic.
//
// Storage: a ShardedLruCache with per-shard mutexes and a byte budget, so
// lookups from many serving threads contend only per shard and memory is
// bounded by payload size, not entry count.

#ifndef XK_SERVICE_ANSWER_CACHE_H_
#define XK_SERVICE_ANSWER_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/lru_cache.h"
#include "engine/query_request.h"

namespace xk::service {

struct AnswerCacheOptions {
  /// Independently locked shards (keys hash onto one).
  size_t num_shards = 8;
  /// Byte budget across all shards (split evenly); least-recently-used
  /// answers are evicted when a shard overflows.
  size_t max_bytes = 64 << 20;

  Status Validate() const {
    if (num_shards < 1) {
      return Status::InvalidArgument("num_shards must be >= 1");
    }
    if (max_bytes < 1) {
      return Status::InvalidArgument("max_bytes must be >= 1");
    }
    return Status::OK();
  }
};

class AnswerCache {
 public:
  enum class Lookup {
    kHit,    // fresh answer returned
    kMiss,   // no entry for this key
    kStale,  // entry existed but was computed under an older generation
  };

  struct LookupResult {
    Lookup kind = Lookup::kMiss;
    /// Set iff kind == kHit. Shared so eviction cannot pull the payload out
    /// from under a reader.
    std::shared_ptr<const engine::QueryResponse> response;
  };

  explicit AnswerCache(AnswerCacheOptions options)
      : options_(options),
        cache_(options.num_shards, options.max_bytes) {}

  /// The canonical cache key of `request` (see file comment). Requests with
  /// equal keys are answer-equivalent.
  static std::string CanonicalKey(const engine::QueryRequest& request);

  /// Estimated resident bytes of a cached response (payload + bookkeeping),
  /// the charge Put levies against the byte budget.
  static size_t EstimateBytes(const std::string& key,
                              const engine::QueryResponse& response);

  /// Looks up `key`; an entry computed under a generation other than
  /// `generation` is erased and reported kStale.
  LookupResult Get(const std::string& key, uint64_t generation);

  /// Stores a completed response computed under `generation`. Returns the
  /// number of LRU-evicted entries.
  size_t Put(const std::string& key, uint64_t generation,
             engine::QueryResponse response);

  void Clear() { cache_.Clear(); }

  /// hits/misses here count Get() outcomes (a stale lookup counts as a
  /// miss in the underlying store plus one `stale`).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats GetStats() const;

  const AnswerCacheOptions& options() const { return options_; }

 private:
  /// What the store holds: the payload plus the generation it answers for.
  struct CachedAnswer {
    uint64_t generation = 0;
    engine::QueryResponse response;
  };

  const AnswerCacheOptions options_;
  ShardedLruCache<std::string, CachedAnswer> cache_;
  std::atomic<uint64_t> stale_{0};
};

}  // namespace xk::service

#endif  // XK_SERVICE_ANSWER_CACHE_H_
