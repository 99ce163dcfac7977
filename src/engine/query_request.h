// Copyright (c) the XKeyword authors.
//
// The unified query API: one QueryRequest describes everything about a
// keyword query — keywords, target decomposition, execution mode, per-query
// wall-clock deadline, and one knob struct — and one QueryResponse carries
// everything back: the MTTON list, execution statistics, and a structured
// quality statement (Completeness + Coverage) saying exactly how much of the
// answer space the result covers when a deadline or anytime budget stopped
// execution early.
//
// XKeyword::Run serves a request synchronously; service::QueryService
// serves them concurrently with admission control (Submit returning a
// joinable QueryHandle).

#ifndef XK_ENGINE_QUERY_REQUEST_H_
#define XK_ENGINE_QUERY_REQUEST_H_

#include <chrono>
#include <string>
#include <vector>

#include "engine/query_context.h"
#include "present/mtton.h"

namespace xk::engine {

/// Which executor serves the request (the paper's three execution modes).
enum class QueryMode {
  kTopK = 0,   // optimized caching executor (Section 6)
  kNaive = 1,  // DISCOVER/DBXplorer-style baseline, cacheless + serial
  kAll = 2,    // complete result list (Figure 4(b) presentation)
};

inline const char* QueryModeToString(QueryMode mode) {
  switch (mode) {
    case QueryMode::kTopK: return "topk";
    case QueryMode::kNaive: return "naive";
    case QueryMode::kAll: return "all";
  }
  return "?";
}

/// How a request interacts with the serving layer's whole-answer cache
/// (service::AnswerCache). Ignored by the synchronous XKeyword::Run path,
/// which never caches.
enum class CacheMode {
  /// Serve from the cache when a fresh answer exists; otherwise execute and
  /// cache the result. Identical concurrent requests coalesce onto one
  /// execution.
  kDefault = 0,
  /// Never read or write the cache, and never coalesce: always a private
  /// execution (load tests, debugging).
  kBypass = 1,
  /// Skip the cache read but execute and overwrite the cached answer
  /// (forced recompute). Still coalesces with identical in-flight requests.
  kRefresh = 2,
};

inline const char* CacheModeToString(CacheMode mode) {
  switch (mode) {
    case CacheMode::kDefault: return "default";
    case CacheMode::kBypass: return "bypass";
    case CacheMode::kRefresh: return "refresh";
  }
  return "?";
}

/// One keyword query, self-contained.
struct QueryRequest {
  std::vector<std::string> keywords;
  /// Name of a materialized decomposition (XKeyword::AddDecomposition).
  std::string decomposition;
  QueryMode mode = QueryMode::kTopK;

  /// Wall-clock budget for the whole query (preparation + execution). Zero
  /// or negative = unbounded. When it runs out the query stops cooperatively
  /// and the response carries kDeadlineExceeded plus whatever results and
  /// statistics were complete. Under QueryService the budget starts at
  /// admission, so queue wait counts against it. The deadline only
  /// truncates: it stops the size-ordered plan schedule where it trips, and
  /// the coverage bound says which size classes are still exact.
  std::chrono::nanoseconds deadline{0};

  /// Every knob of the request — execution and the anytime cost budget — in
  /// one struct (QueryOptions::Validate covers it).
  QueryOptions options;

  /// Answer-cache interaction under service::QueryService (see CacheMode).
  CacheMode cache_mode = CacheMode::kDefault;
};

/// How much of the full answer a response represents.
enum class Completeness {
  /// Every active candidate network ran to completion: the answer is exactly
  /// what an unbounded run would return.
  kComplete = 0,
  /// Execution stopped early (deadline, cancel, or anytime budget) but the
  /// response carries usable partial coverage; `coverage` bounds the quality
  /// (the result prefix up to coverage.exhausted_class is provably correct).
  kDegraded = 1,
  /// Nothing usable was produced before the stop (e.g. the budget ran out
  /// during preparation).
  kFailed = 2,
};

inline const char* CompletenessToString(Completeness c) {
  switch (c) {
    case Completeness::kComplete: return "complete";
    case Completeness::kDegraded: return "degraded";
    case Completeness::kFailed: return "failed";
  }
  return "?";
}

/// The completeness a coverage summary implies for a response that carries
/// `has_results` MTTONs. Shared by every engine front-end.
inline Completeness DeriveCompleteness(const Coverage& coverage,
                                       bool has_results) {
  if (coverage.complete()) return Completeness::kComplete;
  if (has_results || coverage.cns_executed > 0) return Completeness::kDegraded;
  return Completeness::kFailed;
}

/// The outcome of a served request.
struct QueryResponse {
  /// OK for a complete answer (and for answers degraded only by the
  /// deterministic anytime cost budget); kDeadlineExceeded / kCancelled when
  /// the deadline or a cancel tripped the query's token (results and stats
  /// are then partial). Hard
  /// failures — unknown decomposition, invalid options — surface as the
  /// error of the surrounding Result instead, with no response at all.
  Status status;
  std::vector<present::Mtton> mttons;
  /// Probe/cache/bloom counters of this query; partial counts survive a
  /// deadline or cancellation.
  ExecutionStats stats;
  /// Quality statement: branch on this, not on status, to decide whether the
  /// answer is the full answer.
  Completeness completeness = Completeness::kComplete;
  /// Structured quality bound backing `completeness` (CNs executed/skipped,
  /// the largest fully exhausted size class).
  Coverage coverage;
};

/// The response of a query whose deadline or cancel tripped before execution
/// began (during Prepare, whose CN generation polls the token, or right
/// after it): nothing covered, `unrun_plans` networks skipped.
inline QueryResponse StoppedBeforeExecution(const CancelToken& token,
                                            size_t unrun_plans) {
  QueryResponse response;
  response.status = token.ToStatus();
  response.completeness = Completeness::kFailed;
  response.coverage.cns_skipped = static_cast<uint32_t>(unrun_plans);
  response.coverage.interrupted = true;
  return response;
}

/// Did `status` come from a tripped CancelToken?
inline bool IsStopStatus(const Status& status) {
  return status.IsCancelled() || status.IsDeadlineExceeded();
}

}  // namespace xk::engine

#endif  // XK_ENGINE_QUERY_REQUEST_H_
