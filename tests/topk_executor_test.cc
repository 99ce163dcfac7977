// Tests for the per-CN thread pool and semi-join pruning of the top-k
// executor: byte-identical results vs the serial path across early-stop
// settings, pay-as-you-go pruning that never changes results and builds a
// filter only once its step's probes have paid for it,
// stats coverage of single-object plans and of the full-result join-prefix
// memo, complete results against the naive oracle, and answers that no option
// outside the answer-cache key can change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <utility>

#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
#include "exec/access_path.h"
#include "service/answer_cache.h"
#include "test_util.h"

namespace xk::engine {
namespace {

using present::Mtton;
using testing::RunAll;
using testing::RunNaive;
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
    // Unindexed minimal relations: kAll runs them by hash joins.
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

// Semi-join filters are built online (BloomCache::Slot's rent rule) and may
// only skip probes that cannot match: with the pool or without, at every
// per-network bound, the answer is the naive executor's, which neither
// caches nor prunes.
TEST_F(TopKExecutorTest, PayAsYouGoPruningMatchesTheNaiveOracle) {
  const std::vector<std::vector<std::string>> queries = {
      {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}};
  for (const std::string& decomposition : {std::string("MinClust"),
                                           std::string("XKeyword")}) {
    for (size_t k : {size_t{1}, size_t{10}, size_t{1000}}) {
      QueryOptions options;
      options.max_size_z = 6;
      options.per_network_k = k;
      for (const auto& q : queries) {
        XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                                RunNaive(*xk_, q, decomposition, options));
        for (int threads : {1, 4}) {
          options.num_threads = threads;
          XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                                  RunTopK(*xk_, q, decomposition, options));
          EXPECT_EQ(actual, expected)
              << decomposition << " k=" << k << " threads=" << threads << " "
              << q[0] << "," << q[1];
        }
      }
    }
  }
}

// A network stopped after its first result pays too little rent for any
// filter to be worth its build scan, so none is built.
TEST_F(TopKExecutorTest, OneResultPerNetworkBuildsNoFilter) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 1;
  options.num_threads = 1;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"ullman", "gray"}, {"widom", "codd"}}) {
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunTopK(*xk_, q, "XKeyword", options, &stats));
    ASSERT_FALSE(results.empty());
    EXPECT_GT(stats.probes.probes, 0u);
    EXPECT_EQ(stats.bloom_build_rows, 0u) << q[0] << "," << q[1];
    EXPECT_EQ(stats.probes.bloom_skips, 0u) << q[0] << "," << q[1];
  }
}

// Networks enumerated far past their first results probe dead ends into the
// same steps over and over: the rent reaches the build cost, the filters are
// built, and later probes are skipped without touching the table.
TEST_F(TopKExecutorTest, DeadProbeHeavyStepsBuildTheirFilters) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 1000;
  options.num_threads = 1;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"stonebraker", "author47"}}) {
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunTopK(*xk_, q, "MinClust", options, &stats));
    (void)results;
    EXPECT_GT(stats.bloom_build_rows, 0u) << q[0] << "," << q[1];
    EXPECT_GT(stats.probes.bloom_skips, 0u) << q[0] << "," << q[1];
  }
}

// Runs one plan with its own evaluator against `cache`, stopping after `k`
// results as the executor does.
ExecutionStats RunPlan(const opt::CtssnPlan& plan, BloomCache* cache,
                       const PreparedQuery& query, size_t k) {
  PlanLayout layout(&plan, cache);
  PlanEvaluator evaluator(&layout, query.exec_options, /*enable_cache=*/true,
                          /*cache_capacity=*/1 << 16);
  size_t emitted = 0;
  evaluator.Run([&](const std::vector<storage::ObjectId>&) { return ++emitted < k; });
  return evaluator.stats();
}

// Plans that share a step signature pay into one rent: a pair of plans
// neither of which reaches a shared filter's build cost alone builds it when
// run one after the other on one cache. The build is once per query: later
// evaluators adopt the built filter and pay it no rent.
TEST_F(TopKExecutorTest, PlansSharingAStepPoolTheirRent) {
  constexpr size_t kPerNetwork = 10;
  QueryOptions options;
  options.max_size_z = 6;
  size_t pooled = 0;
  for (const auto& keywords : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}}) {
    XK_ASSERT_OK_AND_ASSIGN(PreparedQuery q,
                            xk_->Prepare(keywords, "MinClust", options));
    // Rent each plan pays alone into each of its slots, keyed as the cache
    // keys them.
    struct Paid {
      size_t plan;
      const exec::JoinStep* step;
      std::string signature;
      int column;
      uint64_t rent;
      uint64_t cost;
    };
    std::vector<Paid> paid;
    for (size_t p = 0; p < q.plans.size(); ++p) {
      const opt::CtssnPlan& plan = q.plans[p];
      BloomCache alone(q.exec_options.use_indexes);
      RunPlan(plan, &alone, q, kPerNetwork);
      for (size_t i = 1; i < plan.query.steps.size(); ++i) {
        for (const auto& [col, ref] : plan.query.steps[i].eq) {
          (void)ref;
          BloomCache::Slot* slot =
              alone.Find(plan.query.steps[i], plan.step_signatures[i], col);
          paid.push_back({p, &plan.query.steps[i], plan.step_signatures[i], col,
                          slot->rent.load(), slot->build_cost});
        }
      }
    }
    for (const Paid& a : paid) {
      for (const Paid& b : paid) {
        if (a.plan >= b.plan || a.signature != b.signature ||
            a.column != b.column || a.rent >= a.cost || b.rent >= b.cost ||
            a.rent + b.rent < a.cost) {
          continue;
        }
        ++pooled;
        BloomCache shared(q.exec_options.use_indexes);
        RunPlan(q.plans[a.plan], &shared, q, kPerNetwork);
        BloomCache::Slot* slot = shared.Find(*a.step, a.signature, a.column);
        EXPECT_EQ(slot->Ready(), nullptr);
        RunPlan(q.plans[b.plan], &shared, q, kPerNetwork);
        ASSERT_NE(slot->Ready(), nullptr) << a.signature;
        // Both plans again: they adopt the filter when they start, so they
        // pay it no more rent and never rebuild it.
        const uint64_t rent = slot->rent.load();
        RunPlan(q.plans[a.plan], &shared, q, kPerNetwork);
        RunPlan(q.plans[b.plan], &shared, q, kPerNetwork);
        EXPECT_EQ(slot->rent.load(), rent) << a.signature;
      }
    }
  }
  EXPECT_GT(pooled, 0u);
}

// On the disk backend every page a probe misses adds kPageMissCost to its
// rent. A plan runs the same probes on the same data in memory and on disk
// (paged tables keep the bound paths of in-memory ones), so each filter it
// leaves unbuilt in both is paid exactly the in-memory rent plus a whole
// number of misses, and some of these queries' probes miss.
TEST_F(TopKExecutorTest, PageMissesAddToTheRent) {
  if (xk_->data().storage_options.backend != storage::StorageBackend::kDisk) {
    GTEST_SKIP() << "needs the disk backend (topk_executor_test_disk_backend)";
  }
  // The same data in memory: lift the override that pages the fixture for
  // this one load.
  const std::string backend = std::getenv("XK_STORAGE_BACKEND");
  ::setenv("XK_STORAGE_BACKEND", "memory", 1);
  auto loaded = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss());
  ::setenv("XK_STORAGE_BACKEND", backend.c_str(), 1);
  XK_ASSERT_OK(loaded.status());
  std::unique_ptr<XKeyword> memory = std::move(loaded).MoveValueUnsafe();
  ASSERT_EQ(memory->data().storage_options.backend, storage::StorageBackend::kMemory);
  XK_ASSERT_OK(memory->AddDecomposition(
      decomp::MakeXKeyword(db_->tss(), 2, 6).MoveValueUnsafe()));

  constexpr size_t kPerNetwork = 10;
  QueryOptions options;
  options.max_size_z = 6;
  uint64_t miss_rent = 0;
  for (const auto& keywords : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}}) {
    XK_ASSERT_OK_AND_ASSIGN(PreparedQuery on_disk,
                            xk_->Prepare(keywords, "XKeyword", options));
    XK_ASSERT_OK_AND_ASSIGN(PreparedQuery in_memory,
                            memory->Prepare(keywords, "XKeyword", options));
    ASSERT_EQ(on_disk.plans.size(), in_memory.plans.size());
    for (size_t p = 0; p < on_disk.plans.size(); ++p) {
      const opt::CtssnPlan& disk_plan = on_disk.plans[p];
      const opt::CtssnPlan& memory_plan = in_memory.plans[p];
      BloomCache disk_cache(on_disk.exec_options.use_indexes);
      BloomCache memory_cache(in_memory.exec_options.use_indexes);
      RunPlan(disk_plan, &disk_cache, on_disk, kPerNetwork);
      RunPlan(memory_plan, &memory_cache, in_memory, kPerNetwork);
      for (size_t i = 1; i < disk_plan.query.steps.size(); ++i) {
        for (const auto& [col, ref] : disk_plan.query.steps[i].eq) {
          (void)ref;
          BloomCache::Slot* d = disk_cache.Find(disk_plan.query.steps[i],
                                                disk_plan.step_signatures[i], col);
          BloomCache::Slot* m = memory_cache.Find(
              memory_plan.query.steps[i], memory_plan.step_signatures[i], col);
          if (d->Ready() != nullptr || m->Ready() != nullptr) continue;
          const uint64_t disk_rent = d->rent.load();
          const uint64_t memory_rent = m->rent.load();
          ASSERT_GE(disk_rent, memory_rent) << disk_plan.step_signatures[i];
          EXPECT_EQ((disk_rent - memory_rent) % exec::kPageMissCost, 0u)
              << disk_plan.step_signatures[i];
          miss_rent += disk_rent - memory_rent;
        }
      }
    }
  }
  EXPECT_GT(miss_rent, 0u);
}

// The full-result executor's hash-join path (shared filtered scans plus the
// join-prefix memo, on the unindexed MinNClustNIndx) returns exactly what
// index-nested loops return on MinClust, and the memo resumes shared
// prefixes on these queries.
TEST_F(TopKExecutorTest, FullExecutorSubplanMemoDifferential) {
  QueryOptions options;
  options.max_size_z = 6;
  uint64_t saved = 0;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}}) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> expected,
                            RunAll(*xk_, q, "MinClust", options));
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> actual,
                            RunAll(*xk_, q, "MinNClustNIndx", options, &stats));
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
  uint64_t hits = 0, misses = 0;
  for (const auto& q : std::vector<std::vector<std::string>>{
           {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}}) {
    ExecutionStats stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunAll(*xk_, q, "MinNClustNIndx", options, &stats));
    (void)results;
    hits += stats.subplan_hits;
    misses += stats.subplan_misses;
    if (stats.subplan_misses > 0) EXPECT_GT(stats.subplan_bytes, 0u);
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(hits, 0u);
}

// The independent oracle of the complete-result ranking. kAll ranks plan by
// plan (PlanEvaluator on indexed decompositions, each plan's results sorted
// by objects); kNaive with an unbounded per-network k is the serial cacheless
// top-k executor, whose whole-list SortMttons orders the same result set. A
// per-plan ranking bug changes the kAll list and not the kNaive one. The
// cached kAll run must also equal the cacheless one and actually hit.
TEST_F(TopKExecutorTest, CompleteResultsMatchTheNaiveOracle) {
  const std::vector<std::vector<std::string>> queries = {
      {"ullman", "widom"}, {"gray", "codd"}, {"stonebraker", "author47"}};
  for (const std::string& decomposition : {std::string("XKeyword"),
                                           std::string("MinClust")}) {
    QueryOptions cached;
    cached.max_size_z = 6;
    QueryOptions cacheless = cached;
    cacheless.enable_cache = false;
    QueryOptions naive = cached;
    naive.per_network_k = SIZE_MAX;
    uint64_t hits = 0;
    for (const auto& q : queries) {
      ExecutionStats stats;
      XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> all,
                              RunAll(*xk_, q, decomposition, cached, &stats));
      XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> oracle,
                              RunNaive(*xk_, q, decomposition, naive));
      XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> uncached,
                              RunAll(*xk_, q, decomposition, cacheless));
      EXPECT_FALSE(all.empty()) << decomposition << " " << q[0];
      EXPECT_EQ(all, oracle) << decomposition << " " << q[0];
      EXPECT_EQ(all, uncached) << decomposition << " " << q[0];
      hits += stats.cache_hits;
    }
    EXPECT_GT(hits, 0u) << decomposition;
  }
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
