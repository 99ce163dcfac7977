// Tests for the QueryService serving front-end: concurrent submits,
// deadlines, cooperative cancellation, admission control, metrics — plus the
// LatencyHistogram and the unified Run API's soft-stop semantics on the
// DBLP fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
#include "service/query_service.h"
#include "test_util.h"

namespace xk::service {
namespace {

using engine::Completeness;
using engine::QueryMode;
using engine::QueryRequest;
using engine::QueryResponse;
using testing::RunNaive;
using testing::RunTopK;
using std::chrono::milliseconds;

// --- LatencyHistogram ----------------------------------------------------

TEST(LatencyHistogramTest, EmptyAnswersZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileMicros(50), 0);
  EXPECT_EQ(h.PercentileMicros(99), 0);
}

TEST(LatencyHistogramTest, SingleSampleIsExactAtEveryPercentile) {
  LatencyHistogram h;
  h.Record(milliseconds(3));  // 3000 us
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(50), 3000.0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(99), 3000.0);
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBracketed) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(std::chrono::microseconds(i * 100));  // 100us .. 100ms uniform
  }
  const double p50 = h.PercentileMicros(50);
  const double p95 = h.PercentileMicros(95);
  const double p99 = h.PercentileMicros(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucketed estimates: within a bucket (~19%) of the true value.
  EXPECT_NEAR(p50, 50000.0, 50000.0 * 0.25);
  EXPECT_NEAR(p99, 99000.0, 99000.0 * 0.25);
  EXPECT_LE(p99, 100000.0 + 1);  // clamped to the observed maximum
}

TEST(LatencyHistogramTest, SubMicrosecondSamplesStayBracketed) {
  // Regression: bucket 0 nominally spans [1us, 2^(1/4) us), but it also
  // absorbs everything below 1 us. Interpolating from the 1.0 us edge used
  // to report percentiles ABOVE the maximum of an all-sub-microsecond
  // workload (e.g. p50 = 1.09 us for samples in [100ns, 900ns]).
  LatencyHistogram h;
  for (int i = 1; i <= 9; ++i) {
    h.Record(std::chrono::nanoseconds(i * 100));  // 0.1us .. 0.9us
  }
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    const double v = h.PercentileMicros(p);
    EXPECT_GE(v, 0.1) << "p" << p;
    EXPECT_LE(v, 0.9) << "p" << p;
  }
}

TEST(LatencyHistogramTest, PercentilesBracketedAndMonotoneOnRandomWorkloads) {
  // Property: for any sample set, every percentile estimate lies within
  // [min, max] of the observed samples and is non-decreasing in p.
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 20; ++trial) {
    LatencyHistogram h;
    // Log-uniform over ~7 decades, crossing the sub-microsecond boundary.
    std::uniform_real_distribution<double> exponent(1.0, 8.0);
    const int n = 1 + static_cast<int>(rng() % 500);
    double min_ns = 0, max_ns = 0;
    for (int i = 0; i < n; ++i) {
      const double ns = std::pow(10.0, exponent(rng));
      if (i == 0 || ns < min_ns) min_ns = ns;
      if (i == 0 || ns > max_ns) max_ns = ns;
      h.Record(std::chrono::nanoseconds(static_cast<int64_t>(ns)));
    }
    double prev = 0;
    for (int p = 1; p <= 100; ++p) {
      const double v = h.PercentileMicros(p);
      EXPECT_GE(v, std::floor(min_ns) / 1000.0) << "trial " << trial << " p" << p;
      EXPECT_LE(v, max_ns / 1000.0) << "trial " << trial << " p" << p;
      EXPECT_GE(v, prev) << "trial " << trial << " p" << p;
      prev = v;
    }
  }
}

// --- Service fixture -----------------------------------------------------

/// DBLP database sized so one expensive query (kExpensive below) takes long
/// enough to observe in-flight overlap and mid-query cancellation, while
/// cheap queries stay in the low milliseconds.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DblpConfig config;
    config.num_conferences = 8;
    config.years_per_conference = 5;
    config.avg_papers_per_year = 18;
    config.avg_citations_per_paper = 12.0;
    config.author_vocab = 150;
    config.title_vocab = 150;
    config.seed = 2003;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe().release();
    xk_ = engine::XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe()
              .release();
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6)
                           .MoveValueUnsafe())
                    .ok());
    // The full-result join-prefix memo's counters are read off this one:
    // unindexed, so kAll runs it by hash joins.
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeMinimal(db_->tss(), decomp::PhysicalDesign::kNone,
                                           /*use_indexes_at_runtime=*/false))
                    .ok());
  }

  static void TearDownTestSuite() {
    delete xk_;
    xk_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  /// A cheap request: small networks, top-k bounded.
  static QueryRequest Cheap(const std::vector<std::string>& keywords) {
    QueryRequest request;
    request.keywords = keywords;
    request.decomposition = "XKeyword";
    request.options.max_size_z = 4;
    request.options.per_network_k = 3;
    return request;
  }

  /// An expensive request: the naive (cacheless, serial) executor over the
  /// full network space with effectively unbounded per-network output.
  static QueryRequest Expensive() {
    QueryRequest request;
    request.keywords = {"gray", "codd"};
    request.decomposition = "XKeyword";
    request.mode = QueryMode::kNaive;
    request.options.max_size_z = 6;
    request.options.per_network_k = 1000000;
    return request;
  }

  /// Spins until `predicate` holds or `budget` elapses.
  template <typename Predicate>
  static bool SpinUntil(Predicate predicate, milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return predicate();
  }

  static datagen::DblpDatabase* db_;
  static engine::XKeyword* xk_;
};

datagen::DblpDatabase* ServiceTest::db_ = nullptr;
engine::XKeyword* ServiceTest::xk_ = nullptr;

// --- Unified Run API -----------------------------------------------------

TEST_F(ServiceTest, RunMatchesHelperWrapper) {
  QueryRequest request = Cheap({"gray", "codd"});
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, xk_->Run(request));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.completeness, Completeness::kComplete);

  engine::ExecutionStats legacy_stats;
  XK_ASSERT_OK_AND_ASSIGN(
      std::vector<present::Mtton> legacy,
      RunTopK(*xk_, request.keywords, request.decomposition, request.options,
                &legacy_stats));
  ASSERT_EQ(response.mttons.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(response.mttons[i].objects, legacy[i].objects);
    EXPECT_EQ(response.mttons[i].ctssn_index, legacy[i].ctssn_index);
  }
  EXPECT_EQ(response.stats.probes.probes, legacy_stats.probes.probes);
  EXPECT_EQ(response.stats.results, legacy_stats.results);
}

TEST_F(ServiceTest, TinyDeadlineReturnsDeadlineExceededWithPartialStats) {
  QueryRequest request = Expensive();
  request.deadline = milliseconds(1);
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, xk_->Run(request));
  EXPECT_TRUE(response.status.IsDeadlineExceeded()) << response.status.ToString();
  EXPECT_NE(response.completeness, Completeness::kComplete);
  // Partial statistics survive the stop; the full query does far more work.
  engine::ExecutionStats full_stats;
  XK_ASSERT_OK_AND_ASSIGN(
      std::vector<present::Mtton> full,
      RunNaive(*xk_, request.keywords, request.decomposition, request.options,
                     &full_stats));
  EXPECT_LT(response.stats.probes.rows_scanned, full_stats.probes.rows_scanned);
  EXPECT_LE(response.mttons.size(), full.size());
}

TEST_F(ServiceTest, ExternalTokenCancelsSynchronousRun) {
  CancelToken token;
  token.RequestCancel();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse response,
                          xk_->Run(Expensive(), &token));
  EXPECT_TRUE(response.status.IsCancelled());
  EXPECT_NE(response.completeness, Completeness::kComplete);
}

TEST_F(ServiceTest, InvalidOptionsRejectedBeforeExecution) {
  QueryRequest request = Cheap({"gray"});
  request.options.per_network_k = 0;
  EXPECT_TRUE(xk_->Run(request).status().IsInvalidArgument());
  request = Cheap({"gray"});
  request.options.num_threads = -1;
  EXPECT_TRUE(xk_->Run(request).status().IsInvalidArgument());
  request = Cheap({"gray"});
  request.options.anytime_cost_budget = -1;
  EXPECT_TRUE(xk_->Run(request).status().IsInvalidArgument());
}

// --- QueryService --------------------------------------------------------

TEST_F(ServiceTest, ConcurrentSubmitsFromManyThreadsAreDeterministic) {
  QueryServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 1024;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));

  const std::vector<std::vector<std::string>> queries = {
      {"gray", "codd"}, {"ullman", "widom"}, {"garcia", "molina"},
      {"author23", "author31"}};
  // Reference results from the synchronous API.
  std::vector<QueryResponse> expected;
  for (const auto& q : queries) {
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse r, xk_->Run(Cheap(q)));
    expected.push_back(std::move(r));
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  std::vector<std::vector<QueryHandle>> handles(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto handle = service->Submit(Cheap(queries[(t + i) % queries.size()]));
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        handles[t].push_back(*handle);
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, handles[t][i].Wait());
      EXPECT_TRUE(response.status.ok());
      const QueryResponse& want = expected[(t + i) % queries.size()];
      ASSERT_EQ(response.mttons.size(), want.mttons.size());
      for (size_t m = 0; m < want.mttons.size(); ++m) {
        EXPECT_EQ(response.mttons[m].objects, want.mttons[m].objects);
        EXPECT_EQ(response.mttons[m].ctssn_index, want.mttons[m].ctssn_index);
      }
    }
  }
  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.completed_ok, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.in_flight, 0);
  EXPECT_EQ(snap.queue_depth, 0);
  EXPECT_EQ(snap.latency_count, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(snap.latency_p99_us, 0);
  EXPECT_GE(snap.latency_p99_us, snap.latency_p50_us);
  ASSERT_TRUE(snap.per_decomposition.contains("XKeyword"));
  EXPECT_GT(snap.per_decomposition.at("XKeyword").probes.probes, 0u);
}

TEST_F(ServiceTest, SubplanCacheStatsFlowIntoMetrics) {
  QueryServiceOptions options;
  options.num_workers = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));

  // Complete results by hash joins, whose join-prefix memo is the producer of
  // these counters, over a network space wide enough that several candidate
  // networks share a join prefix; kBypass so each submit actually executes
  // instead of riding the answer cache.
  QueryRequest request;
  request.decomposition = "MinNClustNIndx";
  request.mode = engine::QueryMode::kAll;
  request.options.max_size_z = 6;
  request.cache_mode = engine::CacheMode::kBypass;

  std::vector<QueryHandle> handles;
  for (const auto& keywords : std::vector<std::vector<std::string>>{
           {"gray", "codd"}, {"ullman", "widom"}, {"garcia", "molina"}}) {
    request.keywords = keywords;
    XK_ASSERT_OK_AND_ASSIGN(QueryHandle handle, service->Submit(request));
    handles.push_back(std::move(handle));
  }
  for (QueryHandle& handle : handles) {
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, handle.Wait());
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }

  // The memo counters surface both in the per-decomposition engine stats and
  // as serving-level totals.
  const MetricsSnapshot snap = service->metrics().Snapshot();
  ASSERT_TRUE(snap.per_decomposition.contains("MinNClustNIndx"));
  const engine::ExecutionStats& stats =
      snap.per_decomposition.at("MinNClustNIndx");
  EXPECT_GT(stats.subplan_misses, 0u);
  EXPECT_GT(stats.subplan_hits, 0u);
  EXPECT_GT(stats.subplan_bytes, 0u);
  EXPECT_GT(stats.dedup_saved_rows, 0u);
  EXPECT_EQ(snap.subplan_hits, stats.subplan_hits);
  EXPECT_EQ(snap.subplan_misses, stats.subplan_misses);
  EXPECT_EQ(snap.subplan_bytes, stats.subplan_bytes);
  EXPECT_EQ(snap.dedup_saved_rows, stats.dedup_saved_rows);
}

/// Holds every streaming query it serves inside its first OnBatch until the
/// test opens the gate (or a bounded wait runs out), so executions stay in
/// flight for as long as the test needs to observe them.
class GateSink final : public engine::ResultSink {
 public:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    bool open = false;
  };

  explicit GateSink(Gate* gate) : gate_(gate) {}

  void OnBatch(std::span<const present::Mtton> batch) override {
    (void)batch;
    if (held_) return;
    held_ = true;
    std::unique_lock<std::mutex> lock(gate_->mutex);
    ++gate_->arrived;
    gate_->cv.notify_all();
    gate_->cv.wait_for(lock, std::chrono::seconds(30),
                       [this] { return gate_->open; });
  }

 private:
  Gate* gate_;
  bool held_ = false;
};

TEST_F(ServiceTest, SustainsEightConcurrentInFlightQueries) {
  QueryServiceOptions options;
  options.num_workers = 8;
  options.queue_capacity = 64;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));

  // kTopK so every execution streams into its gate sink; kBypass: this test
  // wants eight *independent* executions in flight, not one leader plus
  // seven coalesced followers.
  QueryRequest independent = Expensive();
  independent.mode = QueryMode::kTopK;
  independent.cache_mode = engine::CacheMode::kBypass;
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse expected, xk_->Run(independent));
  ASSERT_FALSE(expected.mttons.empty());

  GateSink::Gate gate;
  std::vector<std::unique_ptr<GateSink>> sinks;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 8; ++i) {
    sinks.push_back(std::make_unique<GateSink>(&gate));
    QueryService::StreamHooks hooks;
    hooks.sink = sinks.back().get();
    auto handle = service->Submit(independent, std::move(hooks));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  // Every query is held in its sink until the gate opens, so all eight are
  // in flight together however fast the machine runs them.
  {
    std::unique_lock<std::mutex> lock(gate.mutex);
    gate.cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return gate.arrived == 8; });
  }
  EXPECT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 8; },
                        milliseconds(10000)));
  EXPECT_GE(service->metrics().peak_in_flight(), 8);
  {
    std::lock_guard<std::mutex> lock(gate.mutex);
    gate.open = true;
  }
  gate.cv.notify_all();

  for (QueryHandle& handle : handles) {
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, handle.Wait());
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.mttons.size(), expected.mttons.size());
    for (size_t m = 0; m < expected.mttons.size(); ++m) {
      EXPECT_EQ(response.mttons[m].objects, expected.mttons[m].objects);
    }
  }
  EXPECT_EQ(service->metrics().Snapshot().completed_ok, 8u);
}

TEST_F(ServiceTest, DeadlineExceededThroughServiceKeepsPartialStats) {
  QueryServiceOptions options;
  options.num_workers = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));
  QueryRequest request = Expensive();
  request.deadline = milliseconds(1);
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle handle, service->Submit(request));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, handle.Wait());
  EXPECT_TRUE(response.status.IsDeadlineExceeded()) << response.status.ToString();
  EXPECT_NE(response.completeness, Completeness::kComplete);
  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed_ok, 0u);
}

TEST_F(ServiceTest, CancelMidQueryReturnsCancelled) {
  QueryServiceOptions options;
  options.num_workers = 1;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle handle, service->Submit(Expensive()));
  // Let the worker actually start before cancelling.
  EXPECT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 1; },
                        milliseconds(10000)));
  handle.Cancel();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, handle.Wait());
  EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  EXPECT_NE(response.completeness, Completeness::kComplete);
  EXPECT_EQ(service->metrics().Snapshot().cancelled, 1u);
}

TEST_F(ServiceTest, CoalescedFollowerDeadlineExpiryDetachesUnderLoad) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 64;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));

  // Park a convoy of bypass queries on the only worker so the leader below
  // is admitted (and registered for coalescing) but never starts executing
  // while the followers' deadlines run out. This keeps the test independent
  // of how fast one expensive query happens to finish on this machine.
  QueryRequest blocker_request = Expensive();
  blocker_request.cache_mode = engine::CacheMode::kBypass;
  std::vector<QueryHandle> blockers;
  for (int i = 0; i < 16; ++i) {
    XK_ASSERT_OK_AND_ASSIGN(QueryHandle blocker,
                            service->Submit(blocker_request));
    blockers.push_back(std::move(blocker));
  }
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle leader, service->Submit(Expensive()));

  // Followers: the identical request (the deadline is not part of the
  // coalescing key) with a short wall-clock budget. No executor ever polls
  // a follower's token, so QueryHandle::Wait itself must observe the expiry
  // and detach — the self-detach path at the bottom of Wait's loop.
  constexpr int kFollowers = 8;
  QueryRequest follower_request = Expensive();
  follower_request.deadline = milliseconds(20);
  std::vector<QueryHandle> followers;
  for (int i = 0; i < kFollowers; ++i) {
    XK_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                            service->Submit(follower_request));
    followers.push_back(std::move(handle));
  }
  EXPECT_EQ(service->metrics().coalesced(),
            static_cast<uint64_t>(kFollowers));

  // Wait on every follower from its own thread: the expiries race their
  // concurrent detaches against each other and against the (still running)
  // leader.
  std::vector<std::thread> waiters;
  std::vector<Status> outcomes(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    waiters.emplace_back([&, i] {
      Result<QueryResponse> result = followers[static_cast<size_t>(i)].Wait();
      outcomes[static_cast<size_t>(i)] =
          result.ok() ? result.value().status : result.status();
    });
  }
  for (std::thread& waiter : waiters) waiter.join();
  for (int i = 0; i < kFollowers; ++i) {
    EXPECT_TRUE(outcomes[static_cast<size_t>(i)].IsDeadlineExceeded())
        << "follower " << i << ": "
        << outcomes[static_cast<size_t>(i)].ToString();
  }

  // The detaches never touched the shared execution: the leader is still
  // queued behind the convoy, untouched.
  EXPECT_FALSE(leader.Done());

  // Drain: cancel everything still pending and confirm the leader completes
  // as cancelled, not as deadline-exceeded.
  leader.Cancel();
  for (const QueryHandle& blocker : blockers) blocker.Cancel();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse leader_response, leader.Wait());
  EXPECT_TRUE(leader_response.status.IsCancelled())
      << leader_response.status.ToString();
  for (const QueryHandle& blocker : blockers) {
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse drained, blocker.Wait());
    EXPECT_TRUE(drained.status.ok() || drained.status.IsCancelled())
        << drained.status.ToString();
  }

  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.deadline_exceeded, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(snap.coalesced, static_cast<uint64_t>(kFollowers));
  EXPECT_GE(snap.cancelled, 1u);
}

TEST_F(ServiceTest, QueueFullReturnsResourceExhausted) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));

  // kBypass keeps the three identical requests from coalescing — admission
  // control is what's under test here.
  QueryRequest independent = Expensive();
  independent.cache_mode = engine::CacheMode::kBypass;
  // First query occupies the only worker...
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle running, service->Submit(independent));
  ASSERT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 1; },
                        milliseconds(10000)));
  // ...the second fills the queue, the third must be rejected.
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle queued, service->Submit(independent));
  Result<QueryHandle> rejected = service->Submit(independent);
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_GE(service->metrics().rejected(), 1u);

  running.Cancel();
  queued.Cancel();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse r1, running.Wait());
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse r2, queued.Wait());
  EXPECT_TRUE(r1.status.IsCancelled());
  EXPECT_TRUE(r2.status.IsCancelled());
}

TEST_F(ServiceTest, ShutdownCancelsLiveQueriesAndRejectsNewOnes) {
  QueryServiceOptions options;
  options.num_workers = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle handle, service->Submit(Expensive()));
  service->Shutdown();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, handle.Wait());
  // Either the worker observed the cancel, or the query happened to finish.
  EXPECT_TRUE(response.status.IsCancelled() || response.status.ok());
  EXPECT_TRUE(service->Submit(Cheap({"gray"})).status().IsAborted());
  service->Shutdown();  // idempotent
}

TEST_F(ServiceTest, SubmitRacingShutdownNeverLosesAQuery) {
  // Regression: Submit used to hand the query to the pool after releasing
  // the service mutex, so a racing Shutdown could return from pool_->Wait()
  // with an admitted query still on its way into the queue. Every Submit
  // must either be rejected (kAborted/kResourceExhausted) or complete.
  for (int round = 0; round < 20; ++round) {
    QueryServiceOptions options;
    options.num_workers = 2;
    options.queue_capacity = 64;
    XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                            QueryService::Create(xk_, options));
    constexpr int kThreads = 4;
    constexpr int kPerThread = 8;
    std::atomic<int> admitted{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          Result<QueryHandle> handle = service->Submit(Cheap({"gray"}));
          if (!handle.ok()) {
            EXPECT_TRUE(handle.status().IsAborted() ||
                        handle.status().IsResourceExhausted())
                << handle.status().ToString();
            continue;
          }
          ++admitted;
          // Every admitted handle completes — Wait never hangs on a query
          // the shutdown-drained pool silently dropped.
          EXPECT_TRUE(handle->Wait().ok());
        }
      });
    }
    service->Shutdown();  // races the submitters
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(service->metrics().finished(),
              static_cast<uint64_t>(admitted.load()));
  }
}

TEST_F(ServiceTest, WaitIsRepeatableAndHandlesAreCopyable) {
  QueryServiceOptions options;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_, options));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle handle,
                          service->Submit(Cheap({"gray", "codd"})));
  QueryHandle copy = handle;
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse first, handle.Wait());
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse second, copy.Wait());
  EXPECT_TRUE(copy.Done());
  EXPECT_EQ(first.mttons.size(), second.mttons.size());
  EXPECT_EQ(handle.id(), copy.id());
}

TEST(QueryServiceOptionsTest, CreateValidatesOptions) {
  QueryServiceOptions bad_workers;
  bad_workers.num_workers = 0;
  EXPECT_TRUE(QueryServiceOptions{bad_workers}.Validate().IsInvalidArgument());
  QueryServiceOptions bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_TRUE(bad_queue.Validate().IsInvalidArgument());
  EXPECT_TRUE(QueryService::Create(nullptr).status().IsInvalidArgument());
}

}  // namespace
}  // namespace xk::service
