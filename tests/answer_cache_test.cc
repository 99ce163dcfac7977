// Tests for the serving layer's whole-answer cache: key canonicalization,
// hit/miss/eviction and epoch invalidation at the AnswerCache level, then
// end to end through QueryService — cache_mode semantics, N-way in-flight
// coalescing collapsing to a single executor run, and follower
// cancellation/deadline detach.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
#include "service/answer_cache.h"
#include "service/query_service.h"
#include "test_util.h"

namespace xk::service {
namespace {

using engine::CacheMode;
using engine::Completeness;
using engine::QueryMode;
using engine::QueryRequest;
using engine::QueryResponse;
using std::chrono::milliseconds;

QueryRequest Request(std::vector<std::string> keywords) {
  QueryRequest request;
  request.keywords = std::move(keywords);
  request.decomposition = "XKeyword";
  return request;
}

// --- Canonical key -------------------------------------------------------

TEST(AnswerCacheKeyTest, KeywordOrderAndMultiplicityChangeTheKey) {
  // MTTON object order and ties among equal scores follow the keyword order,
  // so the two orders are two answers.
  EXPECT_NE(AnswerCache::CanonicalKey(Request({"gray", "codd"})),
            AnswerCache::CanonicalKey(Request({"codd", "gray"})));
  EXPECT_EQ(AnswerCache::CanonicalKey(Request({"gray", "codd"})),
            AnswerCache::CanonicalKey(Request({"gray", "codd"})));
  EXPECT_NE(AnswerCache::CanonicalKey(Request({"gray", "gray", "codd"})),
            AnswerCache::CanonicalKey(Request({"gray", "codd"})));
}

TEST(AnswerCacheKeyTest, ResultShapingOptionsChangeTheKey) {
  const QueryRequest base = Request({"gray", "codd"});
  const std::string key = AnswerCache::CanonicalKey(base);

  QueryRequest other = base;
  other.decomposition = "Complete";
  EXPECT_NE(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.mode = QueryMode::kNaive;
  EXPECT_NE(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.options.max_size_z = 4;
  EXPECT_NE(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.options.max_network_size = 3;
  EXPECT_NE(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.options.per_network_k = 99;
  EXPECT_NE(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.options.global_k = 7;
  EXPECT_NE(AnswerCache::CanonicalKey(other), key);
}

TEST(AnswerCacheKeyTest, PerformanceKnobsAndServingContractDoNot) {
  const QueryRequest base = Request({"gray", "codd"});
  const std::string key = AnswerCache::CanonicalKey(base);

  QueryRequest other = base;
  other.options.num_threads = 16;
  other.options.enable_cache = false;
  EXPECT_EQ(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.deadline = milliseconds(5);
  EXPECT_EQ(AnswerCache::CanonicalKey(other), key);
  other = base;
  other.cache_mode = CacheMode::kRefresh;
  EXPECT_EQ(AnswerCache::CanonicalKey(other), key);
}

TEST(AnswerCacheKeyTest, NetworkBoundChangesKeyAnytimeKnobsDoNot) {
  QueryRequest all = Request({"gray"});
  all.mode = QueryMode::kAll;
  const std::string key = AnswerCache::CanonicalKey(all);
  all.options.max_network_size = 3;
  EXPECT_NE(AnswerCache::CanonicalKey(all), key);

  // The anytime cost budget shapes when a query degrades, never what the
  // complete answer is — and only complete answers are stored, so the key
  // must not fragment across budget settings.
  QueryRequest topk = Request({"gray"});
  const std::string topk_key = AnswerCache::CanonicalKey(topk);
  topk.options.anytime_cost_budget = 42;
  EXPECT_EQ(AnswerCache::CanonicalKey(topk), topk_key);
}

// --- AnswerCache unit ----------------------------------------------------

QueryResponse MakeResponse(uint64_t results) {
  QueryResponse response;
  response.stats.results = results;
  present::Mtton m;
  m.objects = {1, 2, 3};
  response.mttons.push_back(m);
  return response;
}

TEST(AnswerCacheTest, HitMissAndStaleGeneration) {
  AnswerCache cache(AnswerCacheOptions{});
  EXPECT_EQ(cache.Get("k", 1).kind, AnswerCache::Lookup::kMiss);
  cache.Put("k", /*generation=*/1, MakeResponse(7));

  AnswerCache::LookupResult hit = cache.Get("k", 1);
  ASSERT_EQ(hit.kind, AnswerCache::Lookup::kHit);
  ASSERT_NE(hit.response, nullptr);
  EXPECT_EQ(hit.response->stats.results, 7u);

  // A generation bump invalidates without touching the entry store.
  EXPECT_EQ(cache.Get("k", 2).kind, AnswerCache::Lookup::kStale);
  // The stale entry was erased: the next lookup is a plain miss.
  EXPECT_EQ(cache.Get("k", 2).kind, AnswerCache::Lookup::kMiss);

  const AnswerCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stale, 1u);
  EXPECT_EQ(stats.misses, 3u);  // initial + stale + post-erase
}

TEST(AnswerCacheTest, ByteBudgetEvictsOldAnswers) {
  AnswerCacheOptions options;
  options.num_shards = 1;
  options.max_bytes =
      3 * AnswerCache::EstimateBytes("key-0", MakeResponse(0)) / 2;
  AnswerCache cache(options);
  EXPECT_EQ(cache.Put("key-0", 1, MakeResponse(0)), 0u);
  EXPECT_EQ(cache.Put("key-1", 1, MakeResponse(1)), 1u);  // evicts key-0
  EXPECT_EQ(cache.Get("key-0", 1).kind, AnswerCache::Lookup::kMiss);
  EXPECT_EQ(cache.Get("key-1", 1).kind, AnswerCache::Lookup::kHit);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(AnswerCacheTest, EstimateBytesGrowsWithPayload) {
  QueryResponse small = MakeResponse(1);
  QueryResponse big = MakeResponse(1);
  for (int i = 0; i < 100; ++i) {
    present::Mtton m;
    m.objects = {i, i + 1, i + 2, i + 3};
    big.mttons.push_back(m);
  }
  EXPECT_GT(AnswerCache::EstimateBytes("k", big),
            AnswerCache::EstimateBytes("k", small) + 100 * sizeof(present::Mtton));
}

// --- End to end through QueryService -------------------------------------

/// DBLP database sized so the expensive query below runs long enough to
/// attach followers mid-flight, while cheap queries stay in milliseconds.
class AnswerCacheServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpConfig config;
    config.num_conferences = 8;
    config.years_per_conference = 5;
    config.avg_papers_per_year = 18;
    config.avg_citations_per_paper = 12.0;
    config.author_vocab = 150;
    config.title_vocab = 150;
    config.seed = 2003;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
    xk_ = engine::XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe();
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6)
                           .MoveValueUnsafe())
                    .ok());
  }

  static QueryRequest Cheap(const std::vector<std::string>& keywords) {
    QueryRequest request = Request(keywords);
    request.options.max_size_z = 4;
    request.options.per_network_k = 3;
    return request;
  }

  /// Long enough to observe in-flight: the naive executor over the full
  /// network space with effectively unbounded per-network output.
  static QueryRequest Expensive() {
    QueryRequest request = Request({"gray", "codd"});
    request.mode = QueryMode::kNaive;
    request.options.max_size_z = 6;
    request.options.per_network_k = 1000000;
    return request;
  }

  template <typename Predicate>
  static bool SpinUntil(Predicate predicate, milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return predicate();
  }

  std::unique_ptr<datagen::DblpDatabase> db_;
  std::unique_ptr<engine::XKeyword> xk_;
};

TEST_F(AnswerCacheServiceTest, RepeatedQueryIsServedFromCacheWithoutExecution) {
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), {}));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle first, service->Submit(Cheap({"gray"})));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse miss_response, first.Wait());
  EXPECT_TRUE(miss_response.status.ok());
  const uint64_t probes_after_miss =
      service->metrics().Snapshot().per_decomposition.at("XKeyword").probes.probes;

  for (int i = 0; i < 5; ++i) {
    XK_ASSERT_OK_AND_ASSIGN(QueryHandle again, service->Submit(Cheap({"gray"})));
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse hit_response, again.Wait());
    EXPECT_TRUE(hit_response.status.ok());
    ASSERT_EQ(hit_response.mttons.size(), miss_response.mttons.size());
    for (size_t m = 0; m < miss_response.mttons.size(); ++m) {
      EXPECT_EQ(hit_response.mttons[m].objects, miss_response.mttons[m].objects);
    }
  }

  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.cache_hits, 5u);
  EXPECT_EQ(snap.completed_ok, 6u);
  // No engine work for the hits: the aggregated probe counters are frozen.
  EXPECT_EQ(snap.per_decomposition.at("XKeyword").probes.probes,
            probes_after_miss);
  ASSERT_NE(service->answer_cache(), nullptr);
  EXPECT_EQ(service->answer_cache()->GetStats().entries, 1u);
}

TEST_F(AnswerCacheServiceTest, CacheModeBypassAndRefreshSkipTheRead) {
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), {}));
  QueryRequest request = Cheap({"codd"});
  for (int i = 0; i < 2; ++i) {
    XK_ASSERT_OK_AND_ASSIGN(QueryHandle h, service->Submit(request));
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse r, h.Wait());
    EXPECT_TRUE(r.status.ok());
  }
  EXPECT_EQ(service->metrics().cache_hits(), 1u);

  // kBypass: no read, no write, no coalescing.
  request.cache_mode = CacheMode::kBypass;
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle bypass, service->Submit(request));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse bypass_response, bypass.Wait());
  EXPECT_TRUE(bypass_response.status.ok());
  EXPECT_EQ(service->metrics().cache_hits(), 1u);
  EXPECT_EQ(service->metrics().cache_misses(), 1u);  // bypass counts nowhere

  // kRefresh: recomputes and overwrites even though a fresh answer exists.
  request.cache_mode = CacheMode::kRefresh;
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle refresh, service->Submit(request));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse refresh_response, refresh.Wait());
  EXPECT_TRUE(refresh_response.status.ok());
  EXPECT_EQ(service->metrics().cache_hits(), 1u);
  EXPECT_EQ(service->metrics().cache_misses(), 2u);

  // The refreshed answer serves the next default-mode submit.
  request.cache_mode = CacheMode::kDefault;
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle h, service->Submit(request));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse r, h.Wait());
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(service->metrics().cache_hits(), 2u);
}

TEST_F(AnswerCacheServiceTest, GenerationBumpInvalidatesCachedAnswers) {
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), {}));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle first, service->Submit(Cheap({"gray"})));
  ASSERT_TRUE(first.Wait().ok());
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle hit, service->Submit(Cheap({"gray"})));
  ASSERT_TRUE(hit.Wait().ok());
  EXPECT_EQ(service->metrics().cache_hits(), 1u);

  // The loaded data changes (a decomposition is added): every cached answer
  // predates the new generation and must not be served again.
  const uint64_t before = xk_->data_generation();
  ASSERT_TRUE(xk_->AddDecomposition(
                     decomp::MakeMinimal(
                         db_->tss(), decomp::PhysicalDesign::kClusterPerDirection))
                  .ok());
  EXPECT_GT(xk_->data_generation(), before);

  XK_ASSERT_OK_AND_ASSIGN(QueryHandle stale, service->Submit(Cheap({"gray"})));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse recomputed, stale.Wait());
  EXPECT_TRUE(recomputed.status.ok());
  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.cache_stale, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);   // unchanged
  EXPECT_EQ(snap.cache_misses, 2u);  // initial + the stale recompute

  // And the recomputed answer is cached at the new generation.
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle fresh, service->Submit(Cheap({"gray"})));
  ASSERT_TRUE(fresh.Wait().ok());
  EXPECT_EQ(service->metrics().cache_hits(), 2u);
}

TEST_F(AnswerCacheServiceTest, NWayCoalescingCollapsesToOneExecution) {
  QueryServiceOptions options;
  options.num_workers = 4;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), options));

  // Reference run for both the answer and the per-execution probe count.
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse expected, xk_->Run(Expensive()));
  ASSERT_TRUE(expected.status.ok());

  XK_ASSERT_OK_AND_ASSIGN(QueryHandle leader, service->Submit(Expensive()));
  ASSERT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 1; },
                        milliseconds(10000)));

  constexpr int kFollowers = 6;
  std::vector<QueryHandle> followers;
  for (int i = 0; i < kFollowers; ++i) {
    XK_ASSERT_OK_AND_ASSIGN(QueryHandle f, service->Submit(Expensive()));
    followers.push_back(f);
  }
  EXPECT_EQ(service->metrics().coalesced(), static_cast<uint64_t>(kFollowers));

  XK_ASSERT_OK_AND_ASSIGN(QueryResponse leader_response, leader.Wait());
  EXPECT_TRUE(leader_response.status.ok());
  for (QueryHandle& f : followers) {
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse r, f.Wait());
    EXPECT_TRUE(r.status.ok());
    ASSERT_EQ(r.mttons.size(), expected.mttons.size());
    for (size_t m = 0; m < expected.mttons.size(); ++m) {
      EXPECT_EQ(r.mttons[m].objects, expected.mttons[m].objects);
    }
  }

  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.completed_ok, static_cast<uint64_t>(kFollowers + 1));
  EXPECT_EQ(snap.coalesced, static_cast<uint64_t>(kFollowers));
  // Exactly one executor run: the aggregated engine counters equal ONE
  // execution of this query, despite N identical concurrent requests.
  EXPECT_EQ(snap.per_decomposition.at("XKeyword").probes.probes,
            expected.stats.probes.probes);
  EXPECT_EQ(snap.peak_in_flight, 1);
}

TEST_F(AnswerCacheServiceTest, FollowerCancelDetachesOnlyThatFollower) {
  QueryServiceOptions options;
  options.num_workers = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), options));

  XK_ASSERT_OK_AND_ASSIGN(QueryHandle leader, service->Submit(Expensive()));
  ASSERT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 1; },
                        milliseconds(10000)));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle follower, service->Submit(Expensive()));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle survivor, service->Submit(Expensive()));
  ASSERT_EQ(service->metrics().coalesced(), 2u);

  follower.Cancel();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse cancelled, follower.Wait());
  EXPECT_TRUE(cancelled.status.IsCancelled()) << cancelled.status.ToString();
  EXPECT_EQ(cancelled.completeness, Completeness::kFailed);

  // The shared execution and the other follower are unaffected.
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse leader_response, leader.Wait());
  EXPECT_TRUE(leader_response.status.ok()) << leader_response.status.ToString();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse survivor_response, survivor.Wait());
  EXPECT_TRUE(survivor_response.status.ok());
  EXPECT_EQ(survivor_response.mttons.size(), leader_response.mttons.size());

  const MetricsSnapshot snap = service->metrics().Snapshot();
  EXPECT_EQ(snap.cancelled, 1u);
  EXPECT_EQ(snap.completed_ok, 2u);
}

TEST_F(AnswerCacheServiceTest, FollowerDeadlineDetachesDuringWait) {
  QueryServiceOptions options;
  options.num_workers = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), options));

  XK_ASSERT_OK_AND_ASSIGN(QueryHandle leader, service->Submit(Expensive()));
  ASSERT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 1; },
                        milliseconds(10000)));
  QueryRequest hurried = Expensive();
  hurried.deadline = milliseconds(5);
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle follower, service->Submit(hurried));
  ASSERT_EQ(service->metrics().coalesced(), 1u);

  XK_ASSERT_OK_AND_ASSIGN(QueryResponse timed_out, follower.Wait());
  EXPECT_TRUE(timed_out.status.IsDeadlineExceeded())
      << timed_out.status.ToString();
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse leader_response, leader.Wait());
  EXPECT_TRUE(leader_response.status.ok());
}

TEST_F(AnswerCacheServiceTest, CacheDisabledStillCoalesces) {
  QueryServiceOptions options;
  options.enable_answer_cache = false;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<QueryService> service,
                          QueryService::Create(xk_.get(), options));
  EXPECT_EQ(service->answer_cache(), nullptr);

  XK_ASSERT_OK_AND_ASSIGN(QueryHandle leader, service->Submit(Expensive()));
  ASSERT_TRUE(SpinUntil([&] { return service->metrics().in_flight() >= 1; },
                        milliseconds(10000)));
  XK_ASSERT_OK_AND_ASSIGN(QueryHandle follower, service->Submit(Expensive()));
  EXPECT_EQ(service->metrics().coalesced(), 1u);
  ASSERT_TRUE(leader.Wait().ok());
  ASSERT_TRUE(follower.Wait().ok());
  // No cache: the same query later re-executes.
  EXPECT_EQ(service->metrics().cache_hits(), 0u);
  EXPECT_EQ(service->metrics().cache_misses(), 0u);
}

}  // namespace
}  // namespace xk::service
