// Tests for the execution engine: caching executor vs naive baseline, full
// executor modes, per-network and global limits, thread pool, stats.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "datagen/tpch_gen.h"
#include "engine/thread_pool.h"
#include "engine/xkeyword.h"
#include "test_util.h"

namespace xk::engine {
namespace {

using present::Mtton;
using testing::RunAll;
using testing::RunMode;
using testing::RunNaive;
using testing::RunTopK;

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReentrant) {
  ThreadPool pool(2);
  pool.Wait();  // no tasks
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

class EngineTest : public ::testing::Test {
 protected:
  // The loaded database is immutable across tests; build it once.
  static void SetUpTestSuite() {
    datagen::TpchConfig config;
    config.num_persons = 30;
    config.num_parts = 40;
    config.num_products = 20;
    config.seed = 77;
    db_ = datagen::TpchDatabase::Generate(config).MoveValueUnsafe().release();
    xk_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe()
              .release();
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeMinimal(
                           db_->tss(), decomp::PhysicalDesign::kClusterPerDirection))
                    .ok());
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeMinimal(db_->tss(),
                                           decomp::PhysicalDesign::kHashIndexPerColumn))
                    .ok());
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeMinimal(db_->tss(), decomp::PhysicalDesign::kNone,
                                           /*use_indexes_at_runtime=*/false))
                    .ok());
    ASSERT_TRUE(
        xk_->AddDecomposition(decomp::MakeXKeyword(db_->tss(), 2, 6).MoveValueUnsafe())
            .ok());
    // The same relations and physical design, run without ever touching an
    // index: the oracle for XKeyword's index paths and keyword seeks.
    decomp::Decomposition no_index = decomp::MakeXKeyword(db_->tss(), 2, 6).MoveValueUnsafe();
    no_index.name = "XKeywordNoIndex";
    no_index.use_indexes_at_runtime = false;
    ASSERT_TRUE(xk_->AddDecomposition(std::move(no_index)).ok());
  }

  static void TearDownTestSuite() {
    delete xk_;
    xk_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  std::multiset<std::vector<storage::ObjectId>> Shapes(
      const std::vector<Mtton>& results) {
    std::multiset<std::vector<storage::ObjectId>> out;
    for (const Mtton& m : results) {
      std::vector<storage::ObjectId> key = m.objects;
      key.push_back(m.ctssn_index);
      key.push_back(m.score);
      std::sort(key.begin(), key.end() - 2);
      out.insert(std::move(key));
    }
    return out;
  }

  static datagen::TpchDatabase* db_;
  static XKeyword* xk_;
};

datagen::TpchDatabase* EngineTest::db_ = nullptr;
XKeyword* EngineTest::xk_ = nullptr;

TEST_F(EngineTest, CachedEqualsNaiveAcrossQueries) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 100000;
  options.num_threads = 1;
  const std::vector<std::vector<std::string>> queries = {
      {"john", "tv"}, {"vcr", "dvd"}, {"mike", "radio"}, {"us", "tv"}};
  for (const auto& q : queries) {
    ExecutionStats cached_stats;
    ExecutionStats naive_stats;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> cached,
                            RunTopK(*xk_, q, "MinClust", options, &cached_stats));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> naive,
                            RunNaive(*xk_, q, "MinClust", options, &naive_stats));
    EXPECT_EQ(cached, naive) << q[0] << "," << q[1];
    // The cache trades probes for hits.
    if (cached_stats.cache_hits > 0) {
      EXPECT_LE(cached_stats.probes.probes, naive_stats.probes.probes);
    }
  }
}

TEST_F(EngineTest, AllDecompositionsProduceSameResults) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 100000;
  options.num_threads = 1;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> a,
                          RunTopK(*xk_, {"john", "tv"}, "MinClust", options));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> b,
                          RunTopK(*xk_, {"john", "tv"}, "MinNClustIndx", options));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> c,
                          RunTopK(*xk_, {"john", "tv"}, "MinNClustNIndx", options));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> d,
                          RunTopK(*xk_, {"john", "tv"}, "XKeyword", options));
  EXPECT_EQ(Shapes(a), Shapes(b));
  EXPECT_EQ(Shapes(a), Shapes(c));
  // XKeyword uses different (wider) relations, so plan indexes match but
  // object multisets must agree.
  EXPECT_EQ(Shapes(a), Shapes(d));
}

TEST_F(EngineTest, XKeywordEqualsIndexFreeTwin) {
  // Keyword seeks and index probes must return what scans of the same
  // relations return, in the same order: top-k prefixes included.
  const std::vector<std::vector<std::string>> queries = {
      {"john", "tv"}, {"vcr", "dvd"}, {"mike", "radio"}, {"us", "tv"}};
  for (int threads : {1, 4}) {
    QueryOptions options;
    options.max_size_z = 6;
    options.num_threads = threads;
    for (QueryMode mode : {QueryMode::kTopK, QueryMode::kAll}) {
      for (const auto& q : queries) {
        XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> indexed,
                                RunMode(*xk_, mode, q, "XKeyword", options));
        XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> scanned,
                                RunMode(*xk_, mode, q, "XKeywordNoIndex", options));
        EXPECT_FALSE(indexed.empty()) << q[0] << "," << q[1];
        EXPECT_EQ(indexed, scanned) << q[0] << "," << q[1] << " threads=" << threads
                                    << " mode=" << static_cast<int>(mode);
      }
    }
  }
}

// kAll runs index-nested loops on the indexed MinClust and full-scan hash
// joins on the unindexed MinNClustNIndx (the Fig 15(b) axis): the same
// relations, so the same answer.
TEST_F(EngineTest, FullExecutorModesAgree) {
  QueryOptions options;
  options.max_size_z = 6;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> h,
                          RunAll(*xk_, {"vcr", "dvd"}, "MinNClustNIndx", options));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> n,
                          RunAll(*xk_, {"vcr", "dvd"}, "MinClust", options));
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(Shapes(h), Shapes(n));
}

// The hash-join path runs each keyword-filtered scan once per query and
// shares it across the networks that need it, without changing the answer.
TEST_F(EngineTest, ReuseReducesWork) {
  QueryOptions options;
  options.max_size_z = 6;
  ExecutionStats stats;
  XK_ASSERT_OK_AND_ASSIGN(
      std::vector<Mtton> a,
      RunAll(*xk_, {"john", "tv"}, "MinNClustNIndx", options, &stats));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> b,
                          RunAll(*xk_, {"john", "tv"}, "MinClust", options));
  EXPECT_EQ(Shapes(a), Shapes(b));
  EXPECT_GT(stats.reuse_hits, 0u);
  EXPECT_GT(stats.reuse_misses, 0u);
}

TEST_F(EngineTest, PerNetworkKLimitsEachNetwork) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 2;
  options.num_threads = 1;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                          RunTopK(*xk_, {"tv", "vcr"}, "MinClust", options));
  std::map<int, int> per_network;
  for (const Mtton& m : results) ++per_network[m.ctssn_index];
  for (const auto& [net, count] : per_network) {
    EXPECT_LE(count, 2) << "network " << net;
  }
}

TEST_F(EngineTest, GlobalKCapsTotal) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 100000;
  options.global_k = 5;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                          RunTopK(*xk_, {"tv", "vcr"}, "MinClust", options));
  EXPECT_LE(results.size(), 5u);
}

TEST_F(EngineTest, MultiThreadedMatchesSingleThreaded) {
  QueryOptions single;
  single.max_size_z = 6;
  single.per_network_k = 100000;
  single.num_threads = 1;
  QueryOptions multi = single;
  multi.num_threads = 4;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> a,
                          RunTopK(*xk_, {"vcr", "tv"}, "MinClust", single));
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> b,
                          RunTopK(*xk_, {"vcr", "tv"}, "MinClust", multi));
  EXPECT_EQ(Shapes(a), Shapes(b));
}

TEST_F(EngineTest, ResultsContainAllKeywordsSomewhere) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 1000;
  options.num_threads = 1;
  XK_ASSERT_OK_AND_ASSIGN(PreparedQuery q,
                          xk_->Prepare({"john", "tv"}, "MinClust", options));
  TopKExecutor executor;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results, executor.Run(q, options));
  for (const Mtton& m : results) {
    const cn::Ctssn& c = q.ctssns[static_cast<size_t>(m.ctssn_index)];
    // Every keyword-annotated occurrence's object is in that keyword's
    // containing list for the right schema node.
    for (int v = 0; v < c.num_nodes(); ++v) {
      for (const cn::CtssnKeyword& kw : c.node_keywords[static_cast<size_t>(v)]) {
        bool found = false;
        for (const keyword::Posting& p : xk_->master_index().ContainingList(
                 q.keywords[static_cast<size_t>(kw.keyword)])) {
          if (p.to_id == m.objects[static_cast<size_t>(v)] &&
              p.schema_node == kw.schema_node) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found);
      }
    }
  }
}

TEST_F(EngineTest, ResultsAreRealTreesInTheTargetObjectGraph) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 500;
  options.num_threads = 1;
  XK_ASSERT_OK_AND_ASSIGN(PreparedQuery q,
                          xk_->Prepare({"vcr", "dvd"}, "MinClust", options));
  TopKExecutor executor;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results, executor.Run(q, options));
  ASSERT_FALSE(results.empty());
  for (const Mtton& m : results) {
    const cn::Ctssn& c = q.ctssns[static_cast<size_t>(m.ctssn_index)];
    for (const schema::TssTreeEdge& e : c.tree.edges) {
      storage::ObjectId from = m.objects[static_cast<size_t>(e.from)];
      storage::ObjectId to = m.objects[static_cast<size_t>(e.to)];
      const std::vector<storage::ObjectId>& fwd =
          xk_->objects().Forward(from, e.tss_edge);
      EXPECT_NE(std::find(fwd.begin(), fwd.end(), to), fwd.end())
          << "edge instance missing in target object graph";
    }
    // Distinctness within same-segment occurrences.
    for (int a = 0; a < c.num_nodes(); ++a) {
      for (int b = a + 1; b < c.num_nodes(); ++b) {
        if (c.tree.nodes[static_cast<size_t>(a)] ==
            c.tree.nodes[static_cast<size_t>(b)]) {
          EXPECT_NE(m.objects[static_cast<size_t>(a)],
                    m.objects[static_cast<size_t>(b)]);
        }
      }
    }
  }
}

TEST_F(EngineTest, UnknownDecompositionRejected) {
  QueryOptions options;
  EXPECT_TRUE(RunTopK(*xk_, {"a"}, "nosuch", options).status().IsNotFound());
  EXPECT_TRUE(xk_->Prepare({}, "MinClust", options).status().IsInvalidArgument());
}

TEST_F(EngineTest, AddDecompositionTwiceRejected) {
  EXPECT_TRUE(xk_->AddDecomposition(decomp::MakeMinimal(
                      db_->tss(), decomp::PhysicalDesign::kClusterPerDirection))
                  .IsAlreadyExists());
}

// An unbounded query (no deadline, no cost budget) must come back complete
// in every mode: full coverage and kComplete — the contract the answer cache
// and the migration of the retired per-mode wrappers both rely on.
TEST_F(EngineTest, RunReportsCompleteForUnboundedQueries) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 100000;
  options.num_threads = 1;
  const std::vector<std::string> keywords = {"john", "tv"};

  QueryRequest request;
  request.keywords = keywords;
  request.decomposition = "MinClust";
  request.options = options;

  for (QueryMode mode : {QueryMode::kTopK, QueryMode::kNaive, QueryMode::kAll}) {
    request.mode = mode;
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, xk_->Run(request));
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.completeness, Completeness::kComplete);
    EXPECT_TRUE(response.coverage.complete());
    EXPECT_EQ(response.coverage.cns_skipped, 0u);
    EXPECT_GT(response.coverage.cns_executed, 0u);
    EXPECT_GE(response.coverage.exhausted_class, 1);
    // The helper wrapper must be a faithful view of the same response.
    XK_ASSERT_OK_AND_ASSIGN(
        std::vector<Mtton> via_helper,
        RunMode(*xk_, mode, keywords, "MinClust", options));
    EXPECT_EQ(response.mttons, via_helper);
  }
}

// Prepare (and thus every entry point above it) rejects malformed options
// before touching the master index or the optimizer.
TEST_F(EngineTest, PrepareValidatesQueryOptions) {
  QueryOptions options;
  options.per_network_k = 0;
  EXPECT_TRUE(
      xk_->Prepare({"john"}, "MinClust", options).status().IsInvalidArgument());
  options = QueryOptions();
  options.num_threads = -1;
  EXPECT_TRUE(
      xk_->Prepare({"john"}, "MinClust", options).status().IsInvalidArgument());
  options = QueryOptions();
  options.num_threads = -3;
  EXPECT_TRUE(
      RunTopK(*xk_, {"john"}, "MinClust", options).status().IsInvalidArgument());
}

}  // namespace
}  // namespace xk::engine
