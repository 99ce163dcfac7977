#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace xk::service {

/// One in-flight leader execution plus the followers that coalesced onto
/// it. Membership in `followers` is the single source of truth for who
/// completes a follower: the leader's fan-out and a follower's detach both
/// remove it under `mutex`, so exactly one side wins.
struct CoalesceGroup {
  std::mutex mutex;
  std::vector<std::shared_ptr<QueryState>> followers;
};

/// Shared per-query state: the request, the cancel token both the handle and
/// the executors poll, and the promise-like completion slot.
struct QueryState {
  uint64_t id = 0;
  engine::QueryRequest request;
  CancelToken token;
  std::chrono::steady_clock::time_point submit_time;

  /// Canonical answer-cache key; empty when the request is cache-ineligible
  /// (bypass mode, or cache and coalescing both disabled).
  std::string cache_key;
  /// Data generation the query was admitted under; its answer is cached at
  /// (and only at) this generation.
  uint64_t generation = 0;

  /// Followers only: the in-flight execution this state attached to, plus
  /// the metrics registry for detach-time accounting (shared so a detach
  /// stays safe even if it races the service's destruction).
  std::shared_ptr<CoalesceGroup> attached_group;
  std::shared_ptr<Metrics> metrics;

  /// Leader executions only: streamed through to the engine (see
  /// QueryService::StreamHooks). Null for cache hits and followers.
  engine::ResultSink* sink = nullptr;

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Result<engine::QueryResponse> result = Status::Internal("query not finished");
  /// Completion hook, moved out (and thus fired at most once) by
  /// CompleteState. Runs outside the state lock.
  std::function<void()> on_done;
};

namespace {

/// Publishes the outcome and wakes every waiter; first completion wins.
/// Fires the state's on_done hook (if any) after the waiters are woken,
/// outside the lock — so the hook may itself call Wait() without deadlock.
void CompleteState(const std::shared_ptr<QueryState>& state,
                   Result<engine::QueryResponse> result) {
  std::function<void()> on_done;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    if (state->done) return;
    state->result = std::move(result);
    state->done = true;
    on_done = std::move(state->on_done);
  }
  state->cv.notify_all();
  if (on_done) on_done();
}

std::chrono::nanoseconds LatencySince(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
}

/// Records a follower's outcome. Goes through OnServed, which skips the
/// engine-counter aggregation: the leader's execution already counted it,
/// and a follower ran nothing.
void RecordFollowerFinish(const std::shared_ptr<QueryState>& state,
                          const Status& outcome,
                          const engine::QueryResponse* response) {
  if (state->metrics == nullptr) return;
  state->metrics->OnServed(state->request.decomposition, outcome, response,
                           LatencySince(state->submit_time));
}

/// Detaches a coalesced follower from its leader, completing it with its
/// token's stop status. No-op on leaders and on followers the leader has
/// already fanned out to (membership in the group's list decides).
void DetachFollower(const std::shared_ptr<QueryState>& state) {
  const std::shared_ptr<CoalesceGroup>& group = state->attached_group;
  if (group == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(group->mutex);
    auto it =
        std::find(group->followers.begin(), group->followers.end(), state);
    if (it == group->followers.end()) return;
    group->followers.erase(it);
  }
  Status stop = state->token.ToStatus();
  if (stop.ok()) stop = Status::Cancelled("query cancelled");
  engine::QueryResponse response;
  response.status = stop;
  // A detached follower ran nothing and carries no results: kFailed with an
  // interrupted, zero-coverage bound (it cannot know the leader's coverage).
  response.completeness = engine::Completeness::kFailed;
  response.coverage.interrupted = true;
  RecordFollowerFinish(state, stop, &response);
  CompleteState(state, std::move(response));
}

}  // namespace

// --- QueryHandle ---------------------------------------------------------

QueryHandle::QueryHandle() = default;
QueryHandle::~QueryHandle() = default;
QueryHandle::QueryHandle(const QueryHandle&) = default;
QueryHandle& QueryHandle::operator=(const QueryHandle&) = default;
QueryHandle::QueryHandle(QueryHandle&&) noexcept = default;
QueryHandle& QueryHandle::operator=(QueryHandle&&) noexcept = default;

QueryHandle::QueryHandle(std::shared_ptr<QueryState> state)
    : state_(std::move(state)) {}

uint64_t QueryHandle::id() const { return state_ != nullptr ? state_->id : 0; }

Result<engine::QueryResponse> QueryHandle::Wait() const {
  if (state_ == nullptr) return Status::InvalidArgument("empty query handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  while (!state_->done) {
    if (state_->attached_group != nullptr && state_->token.has_deadline()) {
      // A follower executes nowhere, so no executor polls its token; the
      // waiter enforces the deadline itself and detaches on expiry.
      state_->cv.wait_until(lock, state_->token.deadline_time());
      if (!state_->done && state_->token.StopRequested()) {
        lock.unlock();
        DetachFollower(state_);
        lock.lock();
      }
    } else {
      state_->cv.wait(lock);
    }
  }
  return state_->result;
}

bool QueryHandle::Done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void QueryHandle::Cancel() const {
  if (state_ == nullptr) return;
  state_->token.RequestCancel();
  // A follower is completed here, not by the (still running) leader: its
  // cancel must detach only itself, never the shared execution.
  DetachFollower(state_);
}

// --- QueryService --------------------------------------------------------

Result<std::unique_ptr<QueryService>> QueryService::Create(
    const engine::XKeyword* engine, QueryServiceOptions options) {
  if (engine == nullptr) return Status::InvalidArgument("null query engine");
  XK_RETURN_NOT_OK(options.Validate());
  return std::unique_ptr<QueryService>(new QueryService(engine, options));
}

QueryService::QueryService(const engine::XKeyword* engine,
                           QueryServiceOptions options)
    : engine_(engine),
      options_(options),
      cache_(options.enable_answer_cache
                 ? std::make_unique<AnswerCache>(options.answer_cache)
                 : nullptr),
      pool_(std::make_unique<engine::ThreadPool>(options.num_workers)) {}

QueryService::~QueryService() { Shutdown(); }

Result<QueryHandle> QueryService::Submit(engine::QueryRequest request,
                                         StreamHooks hooks) {
  metrics_->OnSubmitted();
  auto state = std::make_shared<QueryState>();
  state->request = std::move(request);
  state->on_done = std::move(hooks.on_done);
  state->submit_time = std::chrono::steady_clock::now();
  // The wall-clock budget starts at admission: time spent waiting for a
  // worker counts against the deadline, as a saturated service must not
  // grant queued queries more total latency than direct ones.
  if (state->request.deadline.count() > 0) {
    state->token.SetDeadlineAfter(state->request.deadline);
  }
  const engine::QueryRequest& req = state->request;
  const bool bypass = req.cache_mode == engine::CacheMode::kBypass;
  const bool use_cache = cache_ != nullptr && !bypass;
  const bool coalesce = options_.enable_coalescing && !bypass;
  if (use_cache || coalesce) {
    state->cache_key = AnswerCache::CanonicalKey(req);
    state->generation = engine_->data_generation();
  }

  std::shared_ptr<CoalesceGroup> group;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      metrics_->OnRejected();
      return Status::Aborted("query service is shut down");
    }
    state->id = next_id_++;

    // 1. Answer cache: a fresh cached answer completes the handle right
    // here, costing no worker and no queue slot. kRefresh skips the read.
    if (use_cache && req.cache_mode == engine::CacheMode::kDefault) {
      AnswerCache::LookupResult found =
          cache_->Get(state->cache_key, state->generation);
      if (found.kind == AnswerCache::Lookup::kHit) {
        metrics_->OnCacheHit();
        engine::QueryResponse response = *found.response;
        metrics_->OnServed(req.decomposition, response.status, &response,
                           LatencySince(state->submit_time));
        CompleteState(state, std::move(response));
        return QueryHandle(state);
      }
      if (found.kind == AnswerCache::Lookup::kStale) metrics_->OnCacheStale();
    }

    // 2. Coalescing: an identical request already executing? Attach as a
    // follower — the leader's completion fans the response out to us.
    if (coalesce) {
      auto it = inflight_.find(state->cache_key);
      if (it != inflight_.end()) {
        std::lock_guard<std::mutex> group_lock(it->second->mutex);
        state->attached_group = it->second;
        state->metrics = metrics_;
        it->second->followers.push_back(state);
        metrics_->OnCoalesced();
        return QueryHandle(state);
      }
    }

    // 3. Admission onto the worker pool as a leader.
    if (queued_ >= options_.queue_capacity) {
      metrics_->OnRejected();
      return Status::ResourceExhausted(
          StrFormat("admission queue full (%zu queued, capacity %zu)", queued_,
                    options_.queue_capacity));
    }
    if (use_cache) metrics_->OnCacheMiss();
    // Only the leader's private execution streams; cache hits and followers
    // (above) deliver everything through the final response instead.
    state->sink = hooks.sink;
    ++queued_;
    live_.emplace(state->id, state);
    if (coalesce) {
      group = std::make_shared<CoalesceGroup>();
      inflight_.emplace(state->cache_key, group);
    }
    metrics_->OnAdmitted();
    // Handing off to the pool under mutex_ closes the Submit/Shutdown race:
    // Shutdown also takes mutex_ before pool_->Wait(), so it can never
    // observe accepting_ flipped while an admitted query is still on its
    // way into the pool (which could otherwise be enqueued after Wait
    // returned — or after the pool was destroyed).
    pool_->Submit([this, state, group] { Execute(state, group); });
  }
  return QueryHandle(state);
}

void QueryService::Execute(const std::shared_ptr<QueryState>& state,
                           const std::shared_ptr<CoalesceGroup>& group) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
  }
  metrics_->OnStart();

  Result<engine::QueryResponse> result =
      engine_->Run(state->request, &state->token, state->sink);
  const Status outcome = result.ok() ? result.value().status : result.status();
  metrics_->OnFinish(state->request.decomposition, outcome,
                     result.ok() ? &result.value() : nullptr,
                     LatencySince(state->submit_time));

  // Store complete answers only — never degraded or failed ones (a degraded
  // answer is valid for its deadline but wrong to replay for a caller with a
  // roomier one) — and only if the data generation is still the one the
  // query was admitted under.
  if (cache_ != nullptr && !state->cache_key.empty() && result.ok() &&
      result.value().status.ok() &&
      result.value().completeness == engine::Completeness::kComplete &&
      state->generation == engine_->data_generation()) {
    metrics_->OnCacheEvicted(
        cache_->Put(state->cache_key, state->generation, result.value()));
  }

  // Unpublish the in-flight group before completing anyone so no new
  // submit can attach to a finished execution; attaches hold mutex_, so
  // once this block runs the follower list is final.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.erase(state->id);
    if (group != nullptr) {
      auto it = inflight_.find(state->cache_key);
      if (it != inflight_.end() && it->second == group) inflight_.erase(it);
    }
  }

  // Fan out: every still-attached follower wakes with the leader's response
  // (followers that cancelled or timed out already detached themselves).
  std::vector<std::shared_ptr<QueryState>> followers;
  if (group != nullptr) {
    std::lock_guard<std::mutex> group_lock(group->mutex);
    followers.swap(group->followers);
  }
  for (const std::shared_ptr<QueryState>& follower : followers) {
    RecordFollowerFinish(follower, outcome,
                         result.ok() ? &result.value() : nullptr);
    CompleteState(follower, result);
  }
  CompleteState(state, std::move(result));
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    // Queued queries run (the pool offers no way to unqueue them) but their
    // tokens are already tripped, so each finishes immediately as kCancelled
    // — and fans that response out to any coalesced followers.
    for (auto& [id, state] : live_) {
      (void)id;
      state->token.RequestCancel();
    }
  }
  pool_->Wait();
}

}  // namespace xk::service
