// Copyright (c) the XKeyword authors.
//
// Serving metrics for the QueryService front-end: per-outcome counters
// (completed / deadline-exceeded / cancelled / rejected / failed), latency
// histograms answering p50/p95/p99, in-flight and queue-depth gauges, and
// the engine's probe/cache/bloom counters aggregated per decomposition.
// Everything is cheap enough to update on the query hot path: counters and
// gauges are lock-free atomics; only the histogram and the per-decomposition
// aggregation take a short mutex at query completion.

#ifndef XK_SERVICE_METRICS_H_
#define XK_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "engine/query_context.h"
#include "engine/query_request.h"

namespace xk::service {

/// Log-spaced latency histogram: 4 buckets per octave, 128 buckets covering
/// 1 us .. 2^32 us (~71 minutes). Percentiles are estimated by linear
/// interpolation inside the winning bucket, which keeps the p50/p95/p99
/// error under ~19% — plenty for serving dashboards.
class LatencyHistogram {
 public:
  void Record(std::chrono::nanoseconds latency);

  uint64_t count() const { return count_; }
  /// Estimated latency (microseconds) at percentile `p` in (0, 100].
  /// Returns 0 with no samples.
  double PercentileMicros(double p) const;

 private:
  // Bucket b covers [1us * 2^(b/4), 1us * 2^((b+1)/4)); 128 buckets reach
  // 2^32 us ~ 71 minutes, beyond any sane query latency.
  static constexpr size_t kNumBuckets = 128;
  static size_t BucketOf(double micros);

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double min_us_ = 0;
  double max_us_ = 0;
};

/// Point-in-time copy of every metric, safe to read without locks.
struct MetricsSnapshot {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed_ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;
  /// Queries whose response carried Completeness::kDegraded — the anytime
  /// engine returned a usable partial answer instead of a bare timeout.
  /// Orthogonal to the status-outcome counters above (a degraded answer
  /// counts once there too, under its status).
  uint64_t degraded = 0;
  /// Of the degraded responses: how many reported each exhausted CN size
  /// class (Coverage::exhausted_class; -1 = no class fully exhausted). Shows
  /// how much provably-correct prefix overloaded queries still deliver.
  std::map<int, uint64_t> coverage_exhausted_class;

  int64_t queue_depth = 0;
  int64_t in_flight = 0;
  int64_t peak_in_flight = 0;

  uint64_t latency_count = 0;
  double latency_p50_us = 0;
  double latency_p95_us = 0;
  double latency_p99_us = 0;

  /// Answer-cache outcomes (see service::AnswerCache). Every cache-eligible
  /// submit counts in exactly one of hit/miss/coalesced (miss = it became a
  /// leader execution). `cache_stale` side-counts lookups whose entry was
  /// from an older data generation; `cache_evicted` counts entries
  /// LRU-evicted by stores.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t coalesced = 0;
  uint64_t cache_stale = 0;
  uint64_t cache_evicted = 0;

  /// Engine counters summed over every finished query, keyed by the
  /// decomposition it ran against.
  std::map<std::string, engine::ExecutionStats> per_decomposition;

  /// Plan-DAG shared-subplan cache totals across all decompositions
  /// (hits/misses/saved rows summed, bytes the per-query high-water maximum) —
  /// the serving-level view of engine::ExecutionStats::subplan_*.
  uint64_t subplan_hits = 0;
  uint64_t subplan_misses = 0;
  uint64_t subplan_bytes = 0;
  uint64_t dedup_saved_rows = 0;

  /// Disk-backend buffer-pool totals across all decompositions — the
  /// serving-level view of engine::ExecutionStats::page_* (pool page hits,
  /// misses, and page-file bytes read on behalf of served queries). All zero
  /// when the engine runs the in-memory backend.
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;
  uint64_t page_read_bytes = 0;

  /// Socket front-end (net::Server) gauges and counters. Connections
  /// currently open / the high-water mark; result batches, MTTONs and frame
  /// bytes pushed to clients ahead of the final frame; queries cancelled
  /// server-side because the client hung up mid-query; and frames rejected
  /// as malformed (bad type, oversized, short payload).
  int64_t active_connections = 0;
  int64_t peak_connections = 0;
  uint64_t streamed_batches = 0;
  uint64_t streamed_results = 0;
  uint64_t streamed_bytes = 0;
  uint64_t client_aborts = 0;
  uint64_t malformed_frames = 0;
};

/// The registry one QueryService owns. Thread-safe.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Every Submit call, admitted or not.
  void OnSubmitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  /// Submit declined (queue full or service shut down).
  void OnRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  /// Admitted into the queue.
  void OnAdmitted() { queue_depth_.fetch_add(1, std::memory_order_relaxed); }
  /// A worker dequeued the query and starts executing it.
  void OnStart();
  /// The query finished with `status` (the response status for soft stops,
  /// the Result status for hard failures). `response` may be null (hard
  /// failure with no response at all); otherwise its engine counters are
  /// aggregated under `decomposition` and its completeness/coverage feed the
  /// degraded counter and the exhausted-class histogram.
  void OnFinish(const std::string& decomposition, const Status& status,
                const engine::QueryResponse* response,
                std::chrono::nanoseconds latency);

  /// A query served without ever occupying a worker — a cache hit completed
  /// at submit, or a coalesced follower woken by its leader. Counts the
  /// outcome, the latency and (for a non-null `response`) completeness, but
  /// no in-flight or engine-counter accounting: the engine work already
  /// counted under the leader's OnFinish.
  void OnServed(const std::string& decomposition, const Status& status,
                const engine::QueryResponse* response,
                std::chrono::nanoseconds latency);

  /// Answer-cache outcomes, recorded by QueryService at submit/store time.
  void OnCacheHit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void OnCacheMiss() { cache_misses_.fetch_add(1, std::memory_order_relaxed); }
  /// The submit attached to an identical in-flight execution as a follower.
  void OnCoalesced() { coalesced_.fetch_add(1, std::memory_order_relaxed); }
  /// A lookup found an answer from an older data generation; the submit
  /// then proceeds as a miss or coalesces, counted separately.
  void OnCacheStale() {
    cache_stale_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnCacheEvicted(uint64_t n) {
    if (n > 0) cache_evicted_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Socket front-end accounting (net::Server calls these; see the
  /// MetricsSnapshot field docs).
  void OnConnectionOpened();
  void OnConnectionClosed() {
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  /// One streamed batch of `results` MTTONs shipped as `bytes` on the wire
  /// (frame header included), ahead of the final frame.
  void OnStreamedBatch(uint64_t results, uint64_t bytes) {
    streamed_batches_.fetch_add(1, std::memory_order_relaxed);
    streamed_results_.fetch_add(results, std::memory_order_relaxed);
    streamed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// The client disconnected with a query still running; the server turned
  /// that into a cooperative cancel.
  void OnClientAbort() {
    client_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnMalformedFrame() {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }
  uint64_t client_aborts() const {
    return client_aborts_.load(std::memory_order_relaxed);
  }

  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  uint64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }

  int64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  int64_t peak_in_flight() const {
    return peak_in_flight_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  uint64_t finished() const {
    return completed_ok_.load(std::memory_order_relaxed) +
           deadline_exceeded_.load(std::memory_order_relaxed) +
           cancelled_.load(std::memory_order_relaxed) +
           failed_.load(std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_ok_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> failed_{0};

  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> in_flight_{0};
  std::atomic<int64_t> peak_in_flight_{0};

  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> cache_stale_{0};
  std::atomic<uint64_t> cache_evicted_{0};

  std::atomic<int64_t> active_connections_{0};
  std::atomic<int64_t> peak_connections_{0};
  std::atomic<uint64_t> streamed_batches_{0};
  std::atomic<uint64_t> streamed_results_{0};
  std::atomic<uint64_t> streamed_bytes_{0};
  std::atomic<uint64_t> client_aborts_{0};
  std::atomic<uint64_t> malformed_frames_{0};

  void CountOutcome(const Status& status);
  /// Degraded counter + exhausted-class histogram for one served response.
  void CountCompleteness(const engine::QueryResponse* response);

  std::atomic<uint64_t> degraded_{0};

  mutable std::mutex mutex_;  // guards latency_, per_decomposition_, coverage_class_
  LatencyHistogram latency_;
  std::map<std::string, engine::ExecutionStats> per_decomposition_;
  std::map<int, uint64_t> coverage_class_;
};

}  // namespace xk::service

#endif  // XK_SERVICE_METRICS_H_
