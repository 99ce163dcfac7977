// Tests for the per-CN thread pool and semi-join pruning of the top-k
// executor: byte-identical results vs the serial path across early-stop
// settings, pruning that never changes results while skipping probe work,
// stats coverage of single-object plans and of the full-result join-prefix
// memo, and answers that no option outside the answer-cache key can change.

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
#include "service/answer_cache.h"
#include "test_util.h"

namespace xk::engine {
namespace {

using present::Mtton;
using testing::RunAll;
using testing::RunTopK;

class TopKExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DblpConfig config;  // the defaults: small DBLP sample
    config.seed = 2003;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe().release();
    xk_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe()
              .release();
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeMinimal(
                           db_->tss(), decomp::PhysicalDesign::kClusterPerDirection))
                    .ok());
    ASSERT_TRUE(
        xk_->AddDecomposition(decomp::MakeXKeyword(db_->tss(), 2, 6).MoveValueUnsafe())
            .ok());
  }

  static void TearDownTestSuite() {
    delete xk_;
    xk_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static datagen::DblpDatabase* db_;
  static XKeyword* xk_;
};

datagen::DblpDatabase* TopKExecutorTest::db_ = nullptr;
XKeyword* TopKExecutorTest::xk_ = nullptr;

// The per-CN pool must reproduce the serial result list byte for byte — same
// Mttons, same order — including under per-network and global early stops,
// where the completed schedule prefix decides when plans may quit. The
// top-k executor's only reuse is the Section-6 suffix cache, so it reports
// no join-prefix memo counters.
TEST_F(TopKExecutorTest, PerCnPoolIsByteIdentical) {
  const std::vector<std::vector<std::string>> queries = {
      {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}};
  for (const std::string& decomposition : {std::string("MinClust"),
                                           std::string("XKeyword")}) {
    for (size_t global_k : {size_t{0}, size_t{1}, size_t{10}}) {
      QueryOptions serial;
      serial.max_size_z = 6;
      serial.per_network_k = 50;
      serial.global_k = global_k;
      serial.num_threads = 1;
      QueryOptions parallel = serial;
      parallel.num_threads = 4;
      for (const auto& q : queries) {
        XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                                RunTopK(*xk_, q, decomposition, serial));
        ExecutionStats stats;
        XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                                RunTopK(*xk_, q, decomposition, parallel, &stats));
        EXPECT_EQ(actual, expected)
            << decomposition << " global_k=" << global_k << " " << q[0] << ","
            << q[1];
        EXPECT_EQ(stats.subplan_hits + stats.subplan_misses, 0u);
      }
    }
  }
}

// The pool with caching disabled (the naive inner loops) must agree with the
// serial naive run too — the merge logic is independent of caching.
TEST_F(TopKExecutorTest, PoolMatchesSerialWithoutCache) {
  QueryOptions serial;
  serial.max_size_z = 6;
  serial.per_network_k = 50;
  serial.enable_cache = false;
  serial.num_threads = 1;
  QueryOptions parallel = serial;
  parallel.num_threads = 4;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                          RunTopK(*xk_, {"ullman", "widom"}, "MinClust", serial));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                          RunTopK(*xk_, {"ullman", "widom"}, "MinClust", parallel));
  EXPECT_EQ(actual, expected);
}

// Semi-join pruning may only skip probes that cannot match: identical result
// lists, strictly fewer rows touched at probe time, and at least one probe
// rejected by a Bloom filter on this workload.
TEST_F(TopKExecutorTest, PruningPreservesResultsAndSkipsWork) {
  QueryOptions pruned;
  pruned.max_size_z = 6;
  pruned.per_network_k = 1000;
  pruned.num_threads = 1;
  pruned.enable_semijoin_pruning = true;
  QueryOptions unpruned = pruned;
  unpruned.enable_semijoin_pruning = false;

  bool any_skips = false;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"stonebraker", "author47"}}) {
    ExecutionStats pruned_stats, unpruned_stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> with,
                            RunTopK(*xk_, q, "MinClust", pruned, &pruned_stats));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> without,
                            RunTopK(*xk_, q, "MinClust", unpruned, &unpruned_stats));
    EXPECT_EQ(with, without) << q[0] << "," << q[1];
    EXPECT_EQ(unpruned_stats.probes.bloom_skips, 0u);
    if (pruned_stats.probes.bloom_skips > 0) {
      any_skips = true;
      // Every skipped probe saves its scan; build scans are counted apart.
      EXPECT_LT(pruned_stats.probes.rows_scanned,
                unpruned_stats.probes.rows_scanned);
      EXPECT_GT(pruned_stats.bloom_build_rows, 0u);
    }
  }
  EXPECT_TRUE(any_skips);
}

// Pruning and the per-CN pool compose without changing results.
TEST_F(TopKExecutorTest, PruningComposesWithThePool) {
  QueryOptions base;
  base.max_size_z = 6;
  base.per_network_k = 50;
  base.num_threads = 1;
  base.enable_semijoin_pruning = false;
  QueryOptions both = base;
  both.enable_semijoin_pruning = true;
  both.num_threads = 4;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                          RunTopK(*xk_, {"gray", "codd"}, "MinClust", base));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                          RunTopK(*xk_, {"gray", "codd"}, "MinClust", both));
  EXPECT_EQ(actual, expected);
}

// The full-result executor's hash-join path (shared filtered scans plus the
// join-prefix memo) returns exactly what index-nested loops return, and the
// memo resumes shared prefixes on these queries.
TEST_F(TopKExecutorTest, FullExecutorSubplanMemoDifferential) {
  QueryOptions inl;
  inl.max_size_z = 6;
  inl.full_mode = FullMode::kIndexNestedLoop;
  QueryOptions hash = inl;
  hash.full_mode = FullMode::kHashJoin;
  uint64_t saved = 0;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}}) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                            RunAll(*xk_, q, "MinClust", inl));
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                            RunAll(*xk_, q, "MinClust", hash, &stats));
    EXPECT_EQ(actual, expected) << q[0];
    saved += stats.dedup_saved_rows;
  }
  EXPECT_GT(saved, 0u);
}

// Join-prefix memo stats surface through the engine: a kAll hash-join run on
// shared-prefix queries reports stored prefixes (misses), resumed ones
// (hits) and a byte high-water mark.
TEST_F(TopKExecutorTest, SubplanStatsAreReported) {
  QueryOptions options;
  options.max_size_z = 6;
  options.full_mode = FullMode::kHashJoin;
  uint64_t hits = 0, misses = 0;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}}) {
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunAll(*xk_, q, "MinClust", options, &stats));
    (void)results;
    hits += stats.subplan_hits;
    misses += stats.subplan_misses;
    if (stats.subplan_misses > 0) EXPECT_GT(stats.subplan_bytes, 0u);
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(hits, 0u);
}

// Single-object plans (one-keyword queries join nothing) must show up in the
// stats like every other plan: their scan and emitted results are counted.
TEST_F(TopKExecutorTest, SingleObjectPlansRecordStats) {
  QueryOptions options;
  options.max_size_z = 1;  // only the single-occurrence network survives
  options.per_network_k = 1000;
  options.num_threads = 1;
  ExecutionStats stats;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                          RunTopK(*xk_, {"ullman"}, "MinClust", options, &stats));
  ASSERT_FALSE(results.empty());
  for (const Mtton& m : results) EXPECT_EQ(m.objects.size(), 1u);
  EXPECT_EQ(stats.results, results.size());
  EXPECT_GT(stats.probes.probes, 0u);
  EXPECT_GT(stats.probes.rows_scanned, 0u);

  // The pool takes the same single-object shortcut.
  QueryOptions parallel = options;
  parallel.num_threads = 4;
  ExecutionStats parallel_stats;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> parallel_results,
                          RunTopK(*xk_, {"ullman"}, "MinClust", parallel, &parallel_stats));
  EXPECT_EQ(parallel_results, results);
  EXPECT_EQ(parallel_stats.results, results.size());
  EXPECT_GT(parallel_stats.probes.rows_scanned, 0u);
}

// global_k under the default pool: the answer is the serial one. Each plan
// fills its own buffer and the global stop waits for the completed schedule
// prefix, so no interleaving lets a larger network's results displace a
// smaller one's. Fixture and queries as in net_test, where the race showed.
class GlobalKPoolTest : public ::testing::Test {
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
    xk_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe()
              .release();
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6)
                           .MoveValueUnsafe())
                    .ok());
  }

  static void TearDownTestSuite() {
    delete xk_;
    xk_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static datagen::DblpDatabase* db_;
  static XKeyword* xk_;
};

datagen::DblpDatabase* GlobalKPoolTest::db_ = nullptr;
XKeyword* GlobalKPoolTest::xk_ = nullptr;

TEST_F(GlobalKPoolTest, FourThreadsMatchSerial) {
  constexpr int kRepetitions = 50;
  for (size_t global_k : {size_t{1}, size_t{7}, size_t{10}}) {
    for (const std::vector<std::string>& keywords :
         std::vector<std::vector<std::string>>{
             {"gray", "codd"}, {"ullman", "widom"}, {"stonebraker", "author47"}}) {
      QueryRequest request;
      request.keywords = keywords;
      request.decomposition = "XKeyword";
      request.options.max_size_z = 5;
      request.options.per_network_k = 5;
      request.options.global_k = global_k;
      request.options.num_threads = 1;
      XK_ASSERT_OK_AND_ASSIGN(const QueryResponse serial, xk_->Run(request));
      request.options.num_threads = 4;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        XK_ASSERT_OK_AND_ASSIGN(const QueryResponse pooled, xk_->Run(request));
        ASSERT_EQ(pooled.mttons, serial.mttons)
            << "global_k=" << global_k << " " << keywords[0] << ","
            << keywords[1] << " rep=" << rep;
        ASSERT_EQ(pooled.completeness, serial.completeness)
            << "global_k=" << global_k << " " << keywords[0] << ","
            << keywords[1] << " rep=" << rep;
      }
    }
  }
}

// The answer cache keys a request on its result-shaping options only, so
// every option AnswerCache::CanonicalKey leaves out must leave the answer
// byte-identical, global_k cuts included: a cached answer is served to any
// request with an equal key. global_k cuts the schedule's concatenation, so
// the schedule must not depend on any of these options either.
TEST_F(GlobalKPoolTest, OptionsOutsideTheCacheKeyNeverChangeTheAnswer) {
  const std::vector<std::pair<const char*, std::function<void(QueryOptions*)>>>
      flips = {
          {"num_threads=1", [](QueryOptions* o) { o->num_threads = 1; }},
          {"enable_cache=false", [](QueryOptions* o) { o->enable_cache = false; }},
          {"cache_capacity=16", [](QueryOptions* o) { o->cache_capacity = 16; }},
          {"enable_semijoin_pruning=false",
           [](QueryOptions* o) { o->enable_semijoin_pruning = false; }},
          {"anytime_headroom=4", [](QueryOptions* o) { o->anytime_headroom = 4.0; }},
          {"anytime_min_plan_rows=1",
           [](QueryOptions* o) { o->anytime_min_plan_rows = 1; }},
          {"full_mode=kIndexNestedLoop",
           [](QueryOptions* o) { o->full_mode = FullMode::kIndexNestedLoop; }},
          {"full_mode=kHashJoin",
           [](QueryOptions* o) { o->full_mode = FullMode::kHashJoin; }},
      };
  for (size_t global_k : {size_t{1}, size_t{3}, size_t{7}, size_t{10}, size_t{20}}) {
    for (const std::vector<std::string>& keywords :
         std::vector<std::vector<std::string>>{
             {"gray", "codd"}, {"ullman", "widom"}, {"stonebraker", "author47"}}) {
      QueryRequest request;
      request.keywords = keywords;
      request.decomposition = "XKeyword";
      request.options.max_size_z = 5;
      request.options.per_network_k = 5;
      request.options.global_k = global_k;
      XK_ASSERT_OK_AND_ASSIGN(const QueryResponse expected, xk_->Run(request));
      for (const auto& [name, flip] : flips) {
        QueryRequest flipped = request;
        flip(&flipped.options);
        ASSERT_EQ(service::AnswerCache::CanonicalKey(flipped),
                  service::AnswerCache::CanonicalKey(request))
            << name;
        XK_ASSERT_OK_AND_ASSIGN(const QueryResponse actual, xk_->Run(flipped));
        EXPECT_EQ(actual.mttons, expected.mttons)
            << name << " global_k=" << global_k << " " << keywords[0] << ","
            << keywords[1];
      }
    }
  }
}

}  // namespace
}  // namespace xk::engine
