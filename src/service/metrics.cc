#include "service/metrics.h"

#include <algorithm>
#include <cmath>

namespace xk::service {

size_t LatencyHistogram::BucketOf(double micros) {
  if (micros < 1.0) return 0;
  // 4 buckets per octave: bucket = floor(4 * log2(us)).
  const double b = 4.0 * std::log2(micros);
  return std::min(static_cast<size_t>(b), kNumBuckets - 1);
}

void LatencyHistogram::Record(std::chrono::nanoseconds latency) {
  const double us = static_cast<double>(latency.count()) / 1000.0;
  ++buckets_[BucketOf(us)];
  if (count_ == 0 || us < min_us_) min_us_ = us;
  if (count_ == 0 || us > max_us_) max_us_ = us;
  ++count_;
}

double LatencyHistogram::PercentileMicros(double p) const {
  if (count_ == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const uint64_t next = seen + buckets_[b];
    if (static_cast<double>(next) >= target) {
      // Interpolate inside bucket b, clamped to the observed extremes so a
      // single-sample histogram answers the exact value. Bucket 0 is special:
      // it absorbs everything below 1 us, so its lower edge is the observed
      // minimum, not exp2(0) = 1 us (which would report percentiles above the
      // maximum of an all-sub-microsecond workload).
      const double edge_lo =
          b == 0 ? min_us_ : std::exp2(static_cast<double>(b) / 4.0);
      const double lo = std::clamp(edge_lo, min_us_, max_us_);
      const double hi = std::clamp(std::exp2(static_cast<double>(b + 1) / 4.0),
                                   lo, max_us_);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(buckets_[b]);
      return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_us_,
                        max_us_);
    }
    seen = next;
  }
  return max_us_;
}

void Metrics::OnStart() {
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  const int64_t now = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_in_flight_.compare_exchange_weak(peak, now,
                                                std::memory_order_relaxed)) {
  }
}

void Metrics::OnConnectionOpened() {
  const int64_t now = active_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t peak = peak_connections_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_connections_.compare_exchange_weak(peak, now,
                                                  std::memory_order_relaxed)) {
  }
}

void Metrics::CountOutcome(const Status& status) {
  if (status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsCancelled()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.ok()) {
    completed_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Metrics::CountCompleteness(const engine::QueryResponse* response) {
  if (response == nullptr ||
      response->completeness != engine::Completeness::kDegraded) {
    return;
  }
  degraded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  ++coverage_class_[response->coverage.exhausted_class];
}

void Metrics::OnFinish(const std::string& decomposition, const Status& status,
                       const engine::QueryResponse* response,
                       std::chrono::nanoseconds latency) {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  CountOutcome(status);
  CountCompleteness(response);
  std::lock_guard<std::mutex> lock(mutex_);
  latency_.Record(latency);
  if (response != nullptr) {
    per_decomposition_[decomposition].Add(response->stats);
  }
}

void Metrics::OnServed(const std::string& decomposition, const Status& status,
                       const engine::QueryResponse* response,
                       std::chrono::nanoseconds latency) {
  (void)decomposition;  // kept for a future per-decomposition hit breakdown
  CountOutcome(status);
  // A coalesced follower handed a degraded leader answer is itself a
  // degraded query (per-query counting, like the outcome counters above).
  CountCompleteness(response);
  std::lock_guard<std::mutex> lock(mutex_);
  latency_.Record(latency);
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  snap.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  snap.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  snap.cancelled = cancelled_.load(std::memory_order_relaxed);
  snap.failed = failed_.load(std::memory_order_relaxed);
  snap.degraded = degraded_.load(std::memory_order_relaxed);
  snap.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  snap.in_flight = in_flight_.load(std::memory_order_relaxed);
  snap.peak_in_flight = peak_in_flight_.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snap.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  snap.coalesced = coalesced_.load(std::memory_order_relaxed);
  snap.cache_stale = cache_stale_.load(std::memory_order_relaxed);
  snap.cache_evicted = cache_evicted_.load(std::memory_order_relaxed);
  snap.active_connections = active_connections_.load(std::memory_order_relaxed);
  snap.peak_connections = peak_connections_.load(std::memory_order_relaxed);
  snap.streamed_batches = streamed_batches_.load(std::memory_order_relaxed);
  snap.streamed_results = streamed_results_.load(std::memory_order_relaxed);
  snap.streamed_bytes = streamed_bytes_.load(std::memory_order_relaxed);
  snap.client_aborts = client_aborts_.load(std::memory_order_relaxed);
  snap.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  snap.latency_count = latency_.count();
  snap.latency_p50_us = latency_.PercentileMicros(50);
  snap.latency_p95_us = latency_.PercentileMicros(95);
  snap.latency_p99_us = latency_.PercentileMicros(99);
  snap.per_decomposition = per_decomposition_;
  snap.coverage_exhausted_class = coverage_class_;
  for (const auto& [name, stats] : snap.per_decomposition) {
    (void)name;
    snap.subplan_hits += stats.subplan_hits;
    snap.subplan_misses += stats.subplan_misses;
    snap.subplan_bytes = std::max(snap.subplan_bytes, stats.subplan_bytes);
    snap.dedup_saved_rows += stats.dedup_saved_rows;
    snap.page_hits += stats.page_hits;
    snap.page_misses += stats.page_misses;
    snap.page_read_bytes += stats.page_read_bytes;
  }
  return snap;
}

}  // namespace xk::service
