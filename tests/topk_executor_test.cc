// Tests for the per-CN thread pool and semi-join pruning of the top-k
// executor: byte-identical results vs the serial path across early-stop
// settings, pruning that never changes results while skipping probe work, and
// stats coverage of single-object plans.

#include <gtest/gtest.h>

#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
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
// where the completed schedule prefix decides when plans may quit.
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
        XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                                RunTopK(*xk_, q, decomposition, parallel));
        EXPECT_EQ(actual, expected)
            << decomposition << " global_k=" << global_k << " " << q[0] << ","
            << q[1];
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

// Differential harness over the plan-DAG axes: subplan reuse {on, off} ×
// pool threads {1, 4} must all produce the
// byte-identical result list (replay order equals the serial nested-loop
// order; the schedule never depends on these knobs), and on queries whose
// candidate networks share a join prefix the reuse runs must actually dedup
// work (subplan hits + saved rows).
TEST_F(TopKExecutorTest, SubplanReuseDifferential) {
  const std::vector<std::vector<std::string>> queries = {
      {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}};
  uint64_t total_saved = 0;
  for (const std::string& decomposition :
       {std::string("MinClust"), std::string("XKeyword")}) {
    for (const auto& q : queries) {
      QueryOptions baseline;
      baseline.max_size_z = 6;
      baseline.per_network_k = 50;
      baseline.num_threads = 1;
      baseline.enable_subplan_reuse = false;
      XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                              RunTopK(*xk_, q, decomposition, baseline));
      for (bool reuse : {false, true}) {
        for (int threads : {1, 4}) {
          QueryOptions options = baseline;
          options.enable_subplan_reuse = reuse;
          options.num_threads = threads;
          ExecutionStats stats;
          XK_ASSERT_OK_AND_ASSIGN(
              std::vector<Mtton> actual,
              RunTopK(*xk_, q, decomposition, options, &stats));
          EXPECT_EQ(actual, expected)
              << decomposition << " reuse=" << reuse << " threads=" << threads
              << " " << q[0] << "," << q[1];
          if (reuse) {
            total_saved += stats.dedup_saved_rows;
          } else {
            EXPECT_EQ(stats.subplan_hits, 0u);
            EXPECT_EQ(stats.dedup_saved_rows, 0u);
          }
        }
      }
    }
  }
  // At least one workload query has candidate networks sharing a join prefix;
  // reuse must have saved recomputation there.
  EXPECT_GT(total_saved, 0u);
}

// The full-result executor's hash-join prefix memo composes with scan reuse
// without changing output.
TEST_F(TopKExecutorTest, FullExecutorSubplanMemoDifferential) {
  QueryOptions baseline;
  baseline.max_size_z = 6;
  baseline.full_mode = FullMode::kHashJoin;
  baseline.enable_subplan_reuse = false;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}}) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                            RunAll(*xk_, q, "MinClust", baseline));
    for (bool reuse : {false, true}) {
      for (bool scans : {false, true}) {
        QueryOptions full = baseline;
        full.enable_scan_reuse = scans;
        full.enable_subplan_reuse = reuse;
        ExecutionStats stats;
        XK_ASSERT_OK_AND_ASSIGN(
            std::vector<Mtton> actual,
            RunAll(*xk_, q, "MinClust", full, &stats));
        EXPECT_EQ(actual, expected)
            << "reuse=" << reuse << " scans=" << scans << " " << q[0];
        if (!(reuse && scans)) {
          EXPECT_EQ(stats.subplan_hits, 0u);
        }
      }
    }
  }
}

// Subplan stats surface through the engine: a reuse run on a shared-prefix
// query reports misses (leader materializations) and a byte high-water mark.
TEST_F(TopKExecutorTest, SubplanStatsAreReported) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 50;
  options.num_threads = 1;
  uint64_t hits = 0, misses = 0;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}}) {
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunTopK(*xk_, q, "MinClust", options, &stats));
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

}  // namespace
}  // namespace xk::engine
