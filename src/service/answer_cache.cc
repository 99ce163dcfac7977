#include "service/answer_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace xk::service {

std::string AnswerCache::CanonicalKey(const engine::QueryRequest& request) {
  // The keyword *list*, in request order: the order of each answer's MTTON
  // objects and the tie order among equal scores follow it, so reordered
  // keywords are a different answer. '\x1f' (unit separator) cannot appear
  // in keywords coming from the master index's tokenizer, keeping the
  // encoding unambiguous.
  const std::vector<std::string>& keywords = request.keywords;
  std::string key;
  key.reserve(64 + keywords.size() * 12);
  for (const std::string& k : keywords) {
    key += k;
    key += '\x1f';
  }
  key += '\x1e';
  key += request.decomposition;
  key += '\x1e';
  key += engine::QueryModeToString(request.mode);
  // Result-shape options only; performance knobs (threads, the
  // partial-result cache, Bloom pruning) are byte-identity-preserving and
  // deadlines/cache_mode describe the serving contract, not the answer.
  const engine::QueryOptions& o = request.options;
  // anytime_cost_budget is deliberately absent: only kComplete answers are
  // ever stored, and a complete answer is byte-identical across every
  // budget.
  key += StrFormat("\x1e" "z=%d;n=%d;k=%zu;g=%zu", o.max_size_z,
                   o.max_network_size, o.per_network_k, o.global_k);
  return key;
}

size_t AnswerCache::EstimateBytes(const std::string& key,
                                  const engine::QueryResponse& response) {
  size_t bytes = sizeof(CachedAnswer) + key.size();
  bytes += response.mttons.capacity() * sizeof(present::Mtton);
  for (const present::Mtton& m : response.mttons) {
    bytes += m.objects.capacity() * sizeof(storage::ObjectId);
  }
  bytes += response.status.ToString().size();
  // LRU bookkeeping: list node + hash map slot.
  bytes += 4 * sizeof(void*) + sizeof(size_t);
  return bytes;
}

AnswerCache::LookupResult AnswerCache::Get(const std::string& key,
                                           uint64_t generation) {
  LookupResult result;
  std::shared_ptr<const CachedAnswer> cached = cache_.Get(key);
  if (cached == nullptr) {
    result.kind = Lookup::kMiss;
    return result;
  }
  if (cached->generation != generation) {
    // Computed against older data: drop it so the slot is reusable at the
    // current generation. (A concurrent Put of a fresh answer between our
    // Get and this Erase could be lost; the next miss simply recomputes.)
    cache_.Erase(key);
    stale_.fetch_add(1, std::memory_order_relaxed);
    result.kind = Lookup::kStale;
    return result;
  }
  result.kind = Lookup::kHit;
  // Alias the payload inside the shared cache entry: one refcount keeps the
  // whole CachedAnswer alive for as long as any reader holds the response.
  result.response = std::shared_ptr<const engine::QueryResponse>(
      cached, &cached->response);
  return result;
}

size_t AnswerCache::Put(const std::string& key, uint64_t generation,
                        engine::QueryResponse response) {
  auto cached = std::make_shared<CachedAnswer>();
  cached->generation = generation;
  cached->response = std::move(response);
  const size_t bytes = EstimateBytes(key, cached->response);
  return cache_.Put(key, std::move(cached), bytes);
}

AnswerCache::Stats AnswerCache::GetStats() const {
  const auto store = cache_.GetStats();
  Stats stats;
  const uint64_t stale = stale_.load(std::memory_order_relaxed);
  // A stale lookup registers as a store hit (the entry existed) but is a
  // cache miss to callers.
  stats.hits = store.hits - std::min(store.hits, stale);
  stats.misses = store.misses + stale;
  stats.stale = stale;
  stats.evictions = store.evictions;
  stats.entries = store.entries;
  stats.bytes = store.bytes;
  return stats;
}

}  // namespace xk::service
