// Copyright (c) the XKeyword authors.
//
// QueryService: the concurrent serving front-end over one shared
// engine::XKeyword. Keyword-search traffic is dominated by a few expensive
// join-heavy queries among many cheap ones, so the service is built around
// per-query budgets rather than raw throughput alone:
//
//   * admission control — a bounded queue in front of a fixed worker pool
//     (engine::ThreadPool); Submit past the bound fails fast with
//     kResourceExhausted instead of letting latency collapse;
//   * deadlines — each request's wall-clock budget starts at admission and
//     is enforced cooperatively down to probe granularity in the executors;
//   * cancellation — every Submit returns a joinable QueryHandle whose
//     Cancel() stops the running query at the next poll;
//   * observability — a Metrics registry with per-outcome counters, latency
//     percentiles, gauges, and per-decomposition engine counters;
//   * answer caching — completed responses are kept in an AnswerCache keyed
//     by the canonicalized request, so a repeated query is answered without
//     running the engine (QueryRequest::cache_mode opts out per request);
//   * in-flight coalescing — identical concurrent requests attach to the
//     one execution already running (the leader) and all wake with the same
//     response; a follower's cancel or deadline detaches only that
//     follower. A popular-keyword burst costs one executor run, not N.
//
// The engine is immutable at serving time (Load/AddDecomposition happen
// before the service is built), so workers share it without locks. Cached
// answers are tagged with XKeyword::data_generation(); a generation
// bump (e.g. a decomposition added between serving sessions) atomically
// invalidates every older answer.
//
//   auto service = service::QueryService::Create(&xk, {.num_workers = 8});
//   engine::QueryRequest req{.keywords = {"john", "vcr"},
//                            .decomposition = "XKeyword",
//                            .deadline = std::chrono::milliseconds(50)};
//   auto handle = (*service)->Submit(req);
//   auto response = handle->Wait();  // Result<QueryResponse>

#ifndef XK_SERVICE_QUERY_SERVICE_H_
#define XK_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/thread_pool.h"
#include "engine/xkeyword.h"
#include "service/answer_cache.h"
#include "service/metrics.h"

namespace xk::service {

struct QueryState;  // shared between a QueryHandle and the executing worker
struct CoalesceGroup;  // one in-flight execution plus its followers

struct QueryServiceOptions {
  /// Workers executing queries concurrently (the in-flight bound).
  int num_workers = 4;
  /// Admitted-but-not-yet-started bound: Submit returns kResourceExhausted
  /// once this many queries are waiting for a worker. Cache hits and
  /// coalesced followers do not occupy queue slots (they cost no worker).
  size_t queue_capacity = 256;

  /// Whole-answer caching of completed responses. Disable for benchmarking
  /// raw engine throughput.
  bool enable_answer_cache = true;
  AnswerCacheOptions answer_cache;

  /// Duplicate-request suppression: attach identical concurrent requests to
  /// one leader execution instead of running each.
  bool enable_coalescing = true;

  Status Validate() const {
    if (num_workers < 1) {
      return Status::InvalidArgument("num_workers must be >= 1");
    }
    if (queue_capacity < 1) {
      return Status::InvalidArgument("queue_capacity must be >= 1");
    }
    if (enable_answer_cache) {
      XK_RETURN_NOT_OK(answer_cache.Validate());
    }
    return Status::OK();
  }
};

/// Joinable handle to one submitted query. Copyable; all copies name the
/// same query.
class QueryHandle {
 public:
  QueryHandle();
  ~QueryHandle();
  QueryHandle(const QueryHandle&);
  QueryHandle& operator=(const QueryHandle&);
  QueryHandle(QueryHandle&&) noexcept;
  QueryHandle& operator=(QueryHandle&&) noexcept;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;

  /// Blocks until the query finishes and returns its outcome; repeatable.
  Result<engine::QueryResponse> Wait() const;
  bool Done() const;

  /// Cooperative cancel: the running (or still queued) query observes it at
  /// the next poll and finishes with response status kCancelled, keeping any
  /// partial results and statistics.
  void Cancel() const;

 private:
  friend class QueryService;
  explicit QueryHandle(std::shared_ptr<QueryState> state);

  std::shared_ptr<QueryState> state_;
};

class QueryService {
 public:
  static Result<std::unique_ptr<QueryService>> Create(
      const engine::XKeyword* engine, QueryServiceOptions options = {});

  /// Cancels every live query, drains the workers, and joins them.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Streaming attachment for one Submit: the serving bridge used by the
  /// socket front-end (net::Server), usable by any caller that wants results
  /// incrementally.
  struct StreamHooks {
    /// Receives finalized result prefixes while the query executes (see
    /// engine::ResultSink). Only a leader execution streams: a cache hit or
    /// a coalesced follower delivers the whole answer at completion (on_done
    /// fires, Wait() returns everything) and never calls the sink — the
    /// final response is byte-identical either way. May be null.
    engine::ResultSink* sink = nullptr;
    /// Fired exactly once when the query completes (from the completing
    /// thread, outside the state lock), including the cache-hit and
    /// follower-detach paths. Wait() is then non-blocking. Keep it cheap
    /// (signal a condition variable); it must not call back into Submit,
    /// which may hold the service lock on the cache-hit path. May be empty.
    std::function<void()> on_done;
  };

  /// Admits one query. Fails fast with kResourceExhausted when the admission
  /// queue is full and kAborted after Shutdown. A fresh cached answer
  /// completes the handle immediately; a request identical to one already
  /// in flight attaches to it as a follower; otherwise the query runs on a
  /// pool worker and the returned handle joins it.
  Result<QueryHandle> Submit(engine::QueryRequest request) {
    return Submit(std::move(request), StreamHooks{});
  }

  /// Submit with streaming hooks attached (see StreamHooks). On a non-OK
  /// return (queue full, shutdown) the hooks are dropped unfired.
  Result<QueryHandle> Submit(engine::QueryRequest request, StreamHooks hooks);

  /// Stops admitting, cancels every queued and running query, and waits for
  /// the workers to drain. Idempotent.
  void Shutdown();

  Metrics& metrics() { return *metrics_; }
  const Metrics& metrics() const { return *metrics_; }
  const QueryServiceOptions& options() const { return options_; }

  /// Null when the answer cache is disabled.
  const AnswerCache* answer_cache() const { return cache_.get(); }

 private:
  QueryService(const engine::XKeyword* engine, QueryServiceOptions options);

  void Execute(const std::shared_ptr<QueryState>& state,
               const std::shared_ptr<CoalesceGroup>& group);

  const engine::XKeyword* engine_;
  const QueryServiceOptions options_;
  /// Shared (not owned by value) so a detached coalesced follower can still
  /// record its outcome through its QueryState after the service is gone.
  std::shared_ptr<Metrics> metrics_ = std::make_shared<Metrics>();
  std::unique_ptr<AnswerCache> cache_;

  std::mutex mutex_;  // guards accepting_, queued_, next_id_, live_, inflight_
  bool accepting_ = true;
  size_t queued_ = 0;
  uint64_t next_id_ = 1;
  /// Queries admitted but not yet finished, for Shutdown's cancel broadcast.
  std::unordered_map<uint64_t, std::shared_ptr<QueryState>> live_;
  /// Cache key -> the in-flight execution identical submits coalesce onto.
  std::unordered_map<std::string, std::shared_ptr<CoalesceGroup>> inflight_;

  /// Last member: destroyed (joined) first, while the rest is still alive.
  std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace xk::service

#endif  // XK_SERVICE_QUERY_SERVICE_H_
