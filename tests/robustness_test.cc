// Robustness sweeps: the parser must never crash on mangled input, the
// engine must reject malformed usage with clean Status codes, a deadline
// must bound CN generation, and three-keyword queries must behave like
// two-keyword ones.

#include <gtest/gtest.h>

#include <chrono>

#include "cn/cn_generator.h"
#include "common/cancel_token.h"
#include "common/random.h"
#include "datagen/dblp_gen.h"
#include "datagen/tpch_gen.h"
#include "decomp/classify.h"
#include "engine/xkeyword.h"
#include "test_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xk {
namespace {

using testing::RunNaive;
using testing::RunTopK;

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, MutatedDocumentsNeverCrash) {
  // Start from a valid document; apply random mutations; parsing must
  // either succeed or fail with a Corruption status — never crash.
  datagen::TpchConfig config;
  config.num_persons = 3;
  config.num_parts = 4;
  config.num_products = 2;
  config.seed = 7;
  XK_ASSERT_OK_AND_ASSIGN(auto db, datagen::TpchDatabase::Generate(config));
  std::string xml = xml::WriteGraph(db->graph(), false, true);

  Random rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = xml;
    int mutations = static_cast<int>(rng.Uniform(1, 8));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.Uniform(0, 3)) {
        case 0: mutated[pos] = static_cast<char>(rng.Uniform(32, 126)); break;
        case 1: mutated.erase(pos, 1); break;
        case 2: mutated.insert(pos, 1, '<'); break;
        case 3: mutated.insert(pos, "&bad;"); break;
      }
    }
    auto result = xml::ParseXml(mutated);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 5));

TEST(ParserLimits, DeeplyNestedDocument) {
  std::string xml;
  const int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) xml += "<a>";
  xml += "x";
  for (int i = 0; i < kDepth; ++i) xml += "</a>";
  auto doc = xml::ParseXml(xml);
  XK_ASSERT_OK(doc.status());
  EXPECT_EQ(doc->graph.NumNodes(), kDepth);
}

TEST(ThreeKeywordTest, QueriesWork) {
  auto db = testing::MakeFigure1Database();
  auto xk = engine::XKeyword::Load(&db->graph, &db->schema, db->tss.get())
                .MoveValueUnsafe();
  XK_ASSERT_OK(xk->AddDecomposition(decomp::MakeMinimal(
      *db->tss, decomp::PhysicalDesign::kClusterPerDirection)));
  engine::QueryOptions options;
  options.max_size_z = 8;
  options.per_network_k = 100;
  options.num_threads = 1;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<present::Mtton> results,
                          RunTopK(*xk, {"john", "tv", "dvd"}, "MinClust", options));
  ASSERT_FALSE(results.empty());
  // Every result's keyword occurrences check out.
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                          xk->Prepare({"john", "tv", "dvd"}, "MinClust", options));
  for (const present::Mtton& m : results) {
    const cn::Ctssn& c = q.ctssns[static_cast<size_t>(m.ctssn_index)];
    std::set<int> keywords;
    for (const auto& kws : c.node_keywords) {
      for (const cn::CtssnKeyword& kw : kws) keywords.insert(kw.keyword);
    }
    EXPECT_EQ(keywords, (std::set<int>{0, 1, 2}));
  }
  // Naive agrees.
  XK_ASSERT_OK_AND_ASSIGN(std::vector<present::Mtton> naive,
                          RunNaive(*xk, {"john", "tv", "dvd"}, "MinClust", options));
  EXPECT_EQ(results, naive);
}

class PrepareBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpConfig config;
    config.num_conferences = 2;
    config.years_per_conference = 2;
    config.avg_papers_per_year = 6;
    config.author_vocab = 20;
    config.title_vocab = 20;
    config.seed = 11;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
    xk_ = engine::XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe();
    XK_ASSERT_OK(xk_->AddDecomposition(decomp::MakeMinimal(
        db_->tss(), decomp::PhysicalDesign::kClusterPerDirection)));
  }

  engine::QueryRequest Request(size_t num_keywords) const {
    engine::QueryRequest request;
    request.decomposition = "MinClust";
    request.options.num_threads = 1;
    for (size_t i = 0; i < num_keywords; ++i) {
      request.keywords.push_back(
          db_->author_names()[i % db_->author_names().size()]);
    }
    return request;
  }

  std::unique_ptr<datagen::DblpDatabase> db_;
  std::unique_ptr<engine::XKeyword> xk_;
};

// Annotations are 32-bit keyword masks: more keywords are refused up front,
// before keyword discovery or CN generation.
TEST_F(PrepareBoundsTest, TooManyKeywordsRejected) {
  const engine::QueryRequest request = Request(40);
  EXPECT_TRUE(xk_->Run(request).status().IsInvalidArgument());
  EXPECT_TRUE(xk_->Prepare(request.keywords, request.decomposition, request.options)
                  .status()
                  .IsInvalidArgument());
}

// CN generation polls its cancel token every 256 extensions, so a token that
// has already expired stops it on the first poll, however fast the host. The
// 8-keyword mapping needs far more extensions than that.
TEST_F(PrepareBoundsTest, ExpiredDeadlineStopsCnGeneration) {
  const engine::QueryRequest request = Request(8);
  CancelToken expired;
  expired.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));

  std::vector<std::vector<schema::SchemaNodeId>> mapping;
  for (const std::string& k : request.keywords) {
    mapping.push_back(xk_->master_index().SchemaNodesContaining(k));
  }
  cn::CnGeneratorOptions gen_options;
  gen_options.cancel = &expired;
  EXPECT_TRUE(cn::CnGenerator(&xk_->schema(), gen_options)
                  .Generate(mapping)
                  .status()
                  .IsDeadlineExceeded());

  // Through Run, the stop inside Prepare becomes a kFailed response.
  XK_ASSERT_OK_AND_ASSIGN(const engine::QueryResponse response,
                          xk_->Run(request, &expired));
  EXPECT_TRUE(response.status.IsDeadlineExceeded()) << response.status.ToString();
  EXPECT_EQ(response.completeness, engine::Completeness::kFailed);
  EXPECT_TRUE(response.mttons.empty());
}

// A one-keyword, Z = 2 query generates too few networks for the generator's
// periodic poll to fire, so an already-cancelled token must be caught by the
// polls between CTSSN reductions and plans.
TEST_F(PrepareBoundsTest, CancelledTokenStopsPrepareAfterCnGeneration) {
  CancelToken cancelled;
  cancelled.RequestCancel();
  engine::QueryOptions options;
  options.max_size_z = 2;
  options.cancel = &cancelled;
  const Status status =
      xk_->Prepare(Request(1).keywords, "MinClust", options).status();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();

  // Unbounded, the same query prepares fine: the stop is the token's doing.
  options.cancel = nullptr;
  XK_EXPECT_OK(xk_->Prepare(Request(1).keywords, "MinClust", options).status());
}

// Unbounded, CN generation for these 8 keywords runs ~400 ms (2.0 GHz x86-64,
// RelWithDebInfo) before it exceeds max_networks. A 50 ms deadline must bound
// the query's wall time. On a host fast enough to reach max_networks within
// 50 ms, generation fails on its own first; the test above pins the poll.
TEST_F(PrepareBoundsTest, DeadlineBoundsCnGeneration) {
  engine::QueryRequest request = Request(8);
  request.deadline = std::chrono::milliseconds(50);
  const auto start = std::chrono::steady_clock::now();
  const Result<engine::QueryResponse> response = xk_->Run(request);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  if (!response.ok()) {
    EXPECT_TRUE(response.status().IsResourceExhausted()) << response.status().ToString();
    return;
  }
  EXPECT_TRUE(response->status.IsDeadlineExceeded()) << response->status.ToString();
  EXPECT_EQ(response->completeness, engine::Completeness::kFailed);
  EXPECT_TRUE(response->mttons.empty());
}

TEST(InlinedDecompositionTest, DropsRedundantSingleEdges) {
  schema::SchemaGraph s;
  auto tss = datagen::BuildDblpSchema(&s).MoveValueUnsafe();
  XK_ASSERT_OK_AND_ASSIGN(decomp::Decomposition full,
                          decomp::MakeXKeyword(*tss, 2, 4));
  XK_ASSERT_OK_AND_ASSIGN(decomp::Decomposition inlined,
                          decomp::MakeInlined(*tss, 2, 4));
  EXPECT_EQ(inlined.name, "Inlined");
  EXPECT_LT(inlined.fragments.size(), full.fragments.size());
  // Every TSS edge is still covered (Definition 5.2).
  std::set<schema::TssEdgeId> covered;
  for (const decomp::Fragment& f : inlined.fragments) {
    for (const schema::TssTreeEdge& e : f.tree.edges) covered.insert(e.tss_edge);
  }
  EXPECT_EQ(covered.size(), static_cast<size_t>(tss->NumEdges()));
}

TEST(MaximalDecompositionTest, ZeroJoinsForEveryNetwork) {
  schema::SchemaGraph s;
  auto tss = datagen::BuildDblpSchema(&s).MoveValueUnsafe();
  XK_ASSERT_OK_AND_ASSIGN(decomp::Decomposition maximal,
                          decomp::MakeMaximal(*tss, 3));
  decomp::EnumerateOptions opts;
  opts.max_size = 3;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<schema::TssTree> nets,
                          decomp::EnumerateTrees(*tss, opts));
  for (const schema::TssTree& net : nets) {
    EXPECT_TRUE(decomp::Covered(net, *tss, maximal.fragments, 0))
        << net.ToString(*tss);
  }
}

TEST(ExpansionPiecesTest, MinimalYieldsPerEdgePieces) {
  auto db = testing::MakeFigure1Database();
  auto xk = engine::XKeyword::Load(&db->graph, &db->schema, db->tss.get())
                .MoveValueUnsafe();
  XK_ASSERT_OK(xk->AddDecomposition(decomp::MakeMinimal(
      *db->tss, decomp::PhysicalDesign::kClusterPerDirection)));
  XK_ASSERT_OK_AND_ASSIGN(engine::ExpansionEngine engine,
                          xk->MakeExpansionEngine("MinClust"));

  schema::TssId p = *db->tss->SegmentByName("P");
  schema::TssId l = *db->tss->SegmentByName("L");
  schema::TssId pa = *db->tss->SegmentByName("Pa");
  cn::Ctssn c;
  c.tree.nodes = {p, l, pa};
  c.tree.edges = {schema::TssTreeEdge{1, 0, *db->tss->FindEdge(l, p)},
                  schema::TssTreeEdge{1, 2, *db->tss->FindEdge(l, pa)}};
  c.node_keywords.resize(3);

  std::vector<engine::ExpansionEngine::Piece> pieces = engine.PlanPieces(c, 1, opt::NodeFilters(3));
  EXPECT_EQ(pieces.size(), 2u);  // one per edge
  for (const auto& piece : pieces) {
    EXPECT_EQ(piece.table->arity(), 2);
  }
}

TEST(ExpansionPiecesTest, WiderDecompositionYieldsFewerPieces) {
  auto db = testing::MakeFigure1Database();
  auto xk = engine::XKeyword::Load(&db->graph, &db->schema, db->tss.get())
                .MoveValueUnsafe();
  XK_ASSERT_OK(
      xk->AddDecomposition(decomp::MakeXKeyword(*db->tss, 2, 4).MoveValueUnsafe()));
  XK_ASSERT_OK_AND_ASSIGN(engine::ExpansionEngine engine,
                          xk->MakeExpansionEngine("XKeyword"));

  schema::TssId p = *db->tss->SegmentByName("P");
  schema::TssId l = *db->tss->SegmentByName("L");
  schema::TssId pa = *db->tss->SegmentByName("Pa");
  cn::Ctssn c;
  c.tree.nodes = {p, l, pa};
  c.tree.edges = {schema::TssTreeEdge{1, 0, *db->tss->FindEdge(l, p)},
                  schema::TssTreeEdge{1, 2, *db->tss->FindEdge(l, pa)}};
  c.node_keywords.resize(3);

  std::vector<engine::ExpansionEngine::Piece> pieces = engine.PlanPieces(c, 1, opt::NodeFilters(3));
  EXPECT_EQ(pieces.size(), 1u);  // one P<-L->Pa star fragment
}

}  // namespace
}  // namespace xk
