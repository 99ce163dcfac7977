// Randomized property sweeps (TEST_P over generator seeds): for arbitrary
// DBLP-like instances and keyword pairs, every executor and every
// decomposition must produce the same result sets, and every result must be
// a genuine, keyword-complete tree of the target object graph. A second
// sweep checks the CN generator against the copy-per-extension reference
// over the DBLP, TPC-H and random schemas.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cn/cn_generator.h"
#include "common/random.h"
#include "datagen/dblp_gen.h"
#include "datagen/tpch_gen.h"
#include "engine/xkeyword.h"
#include "reference_cn_generator.h"
#include "test_util.h"

namespace xk {
namespace {

using engine::ExecutionStats;
using engine::QueryOptions;
using engine::XKeyword;
using present::Mtton;
using testing::RunAll;
using testing::RunNaive;
using testing::RunTopK;

class QueryProperties : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    datagen::DblpConfig config;
    config.num_conferences = 3;
    config.years_per_conference = 3;
    config.avg_papers_per_year = 6;
    config.avg_citations_per_paper = 3.0;
    config.author_vocab = 25;
    config.title_vocab = 30;
    config.seed = static_cast<uint64_t>(GetParam());
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
    xk_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe();
    XK_ASSERT_OK(xk_->AddDecomposition(decomp::MakeMinimal(
        db_->tss(), decomp::PhysicalDesign::kClusterPerDirection)));
    // M = 4 matches the queries' max_size_z below (CTSSN size <= CN size).
    XK_ASSERT_OK(xk_->AddDecomposition(
        decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/4).MoveValueUnsafe()));
    XK_ASSERT_OK(
        xk_->AddDecomposition(decomp::MakeComplete(db_->tss(), 2).MoveValueUnsafe()));

    // Keyword pairs drawn from the instance's vocabularies.
    Random rng(config.seed * 31 + 7);
    for (int i = 0; i < 3; ++i) {
      queries_.push_back({rng.Pick(db_->author_names()),
                          rng.Pick(db_->title_words())});
    }
    queries_.push_back({"ullman", "keyword"});
  }

  /// Multiset of result "shapes" — objects + score, network-agnostic is NOT
  /// desired: identical networks must match across executors.
  std::multiset<std::vector<storage::ObjectId>> Shapes(
      const std::vector<Mtton>& results) {
    std::multiset<std::vector<storage::ObjectId>> out;
    for (const Mtton& m : results) {
      std::vector<storage::ObjectId> key = m.objects;
      std::sort(key.begin(), key.end());
      key.push_back(m.ctssn_index);
      key.push_back(m.score);
      out.insert(std::move(key));
    }
    return out;
  }

  std::unique_ptr<datagen::DblpDatabase> db_;
  std::unique_ptr<XKeyword> xk_;
  std::vector<std::vector<std::string>> queries_;
};

TEST_P(QueryProperties, ExecutorsAgree) {
  QueryOptions options;
  options.max_size_z = 4;
  options.per_network_k = 1u << 20;
  options.num_threads = 1;
  for (const auto& q : queries_) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> cached,
                            RunTopK(*xk_, q, "MinClust", options));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> naive,
                            RunNaive(*xk_, q, "MinClust", options));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> full,
                            RunAll(*xk_, q, "MinClust", options));
    EXPECT_EQ(Shapes(cached), Shapes(naive)) << q[0] << " " << q[1];
    EXPECT_EQ(Shapes(cached), Shapes(full)) << q[0] << " " << q[1];
  }
}

TEST_P(QueryProperties, DecompositionsAgree) {
  QueryOptions options;
  options.max_size_z = 4;
  options.per_network_k = 1u << 20;
  options.num_threads = 1;
  for (const auto& q : queries_) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> minimal,
                            RunTopK(*xk_, q, "MinClust", options));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> xkeyword,
                            RunTopK(*xk_, q, "XKeyword", options));
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> complete,
                            RunTopK(*xk_, q, "Complete", options));
    EXPECT_EQ(Shapes(minimal), Shapes(xkeyword)) << q[0] << " " << q[1];
    EXPECT_EQ(Shapes(minimal), Shapes(complete)) << q[0] << " " << q[1];
  }
}

TEST_P(QueryProperties, ResultsAreKeywordCompleteTrees) {
  QueryOptions options;
  options.max_size_z = 4;
  options.per_network_k = 200;
  options.num_threads = 1;
  for (const auto& q : queries_) {
    XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery prepared,
                            xk_->Prepare(q, "MinClust", options));
    engine::TopKExecutor executor;
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            executor.Run(prepared, options));
    for (const Mtton& m : results) {
      const cn::Ctssn& c = prepared.ctssns[static_cast<size_t>(m.ctssn_index)];
      EXPECT_EQ(m.score, c.cn_size);
      // Edges exist in the target object graph.
      for (const schema::TssTreeEdge& e : c.tree.edges) {
        const std::vector<storage::ObjectId>& fwd = xk_->objects().Forward(
            m.objects[static_cast<size_t>(e.from)], e.tss_edge);
        ASSERT_NE(std::find(fwd.begin(), fwd.end(),
                            m.objects[static_cast<size_t>(e.to)]),
                  fwd.end());
      }
      // Keyword filters honored.
      for (int v = 0; v < c.num_nodes(); ++v) {
        for (const cn::CtssnKeyword& kw :
             c.node_keywords[static_cast<size_t>(v)]) {
          bool found = false;
          for (const keyword::Posting& p : xk_->master_index().ContainingList(
                   q[static_cast<size_t>(kw.keyword)])) {
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
}

TEST_P(QueryProperties, NoDuplicateResultsWithinANetwork) {
  QueryOptions options;
  options.max_size_z = 4;
  options.per_network_k = 1u << 20;
  options.num_threads = 1;
  for (const auto& q : queries_) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunTopK(*xk_, q, "MinClust", options));
    std::set<std::pair<int, std::vector<storage::ObjectId>>> seen;
    for (const Mtton& m : results) {
      EXPECT_TRUE(seen.insert({m.ctssn_index, m.objects}).second)
          << "duplicate result in network " << m.ctssn_index;
    }
  }
}

TEST_P(QueryProperties, ScoresNondecreasingAndBounded) {
  QueryOptions options;
  options.max_size_z = 4;
  options.per_network_k = 50;
  for (const auto& q : queries_) {
    XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                            RunTopK(*xk_, q, "MinClust", options));
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_LE(results[i - 1].score, results[i].score);
    }
    for (const Mtton& m : results) {
      EXPECT_GE(m.score, 0);
      EXPECT_LE(m.score, options.max_size_z);
    }
  }
}

TEST_P(QueryProperties, PresentationGraphInvariantAfterRandomActions) {
  QueryOptions options;
  options.max_size_z = 4;
  options.per_network_k = 64;
  options.num_threads = 1;
  const auto& q = queries_.back();  // "ullman keyword" always matches
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery prepared,
                          xk_->Prepare(q, "MinClust", options));
  engine::TopKExecutor executor;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<Mtton> results,
                          executor.Run(prepared, options));
  std::map<int, int> per_network;
  for (const Mtton& m : results) ++per_network[m.ctssn_index];
  Random rng(static_cast<uint64_t>(GetParam()) + 999);
  for (const auto& [net, count] : per_network) {
    if (count < 2) continue;
    XK_ASSERT_OK_AND_ASSIGN(present::PresentationGraph pg,
                            xk_->MakePresentationGraph(prepared, net, results));
    const cn::Ctssn& c = prepared.ctssns[static_cast<size_t>(net)];
    for (int action = 0; action < 8; ++action) {
      int occ = static_cast<int>(rng.Uniform(0, c.num_nodes() - 1));
      if (rng.OneIn(3) && pg.IsExpanded(occ)) {
        // Contract onto an arbitrary displayed object of this role.
        for (const auto& [o, obj] : pg.Displayed()) {
          if (o == occ) {
            XK_ASSERT_OK(pg.Contract(occ, obj));
            break;
          }
        }
      } else {
        XK_ASSERT_OK(pg.Expand(occ));
      }
      ASSERT_TRUE(pg.InvariantHolds()) << "network " << net;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryProperties, ::testing::Range(1, 7));

// --- CN generator parity ---------------------------------------------------

/// A random schema of 3-7 nodes: a containment tree (some choice nodes, to-one
/// and to-many edges), plus reference edges (self-loops and to-one included)
/// and the odd second containment parent.
void BuildRandomSchema(Random* rng, schema::SchemaGraph* schema) {
  const int n = static_cast<int>(rng->Uniform(3, 7));
  for (int v = 0; v < n; ++v) {
    schema->AddNode("n" + std::to_string(v), rng->OneIn(4) ? schema::NodeKind::kChoice
                                                           : schema::NodeKind::kAll);
  }
  for (int v = 1; v < n; ++v) {
    XK_CHECK(schema->AddContainmentEdge(static_cast<int>(rng->Uniform(0, v - 1)), v,
                                        !rng->OneIn(3))
                 .ok());
  }
  const int references = static_cast<int>(rng->Uniform(0, 3));
  for (int r = 0; r < references; ++r) {
    XK_CHECK(schema->AddReferenceEdge(static_cast<int>(rng->Uniform(0, n - 1)),
                                      static_cast<int>(rng->Uniform(0, n - 1)),
                                      rng->OneIn(2))
                 .ok());
  }
  if (rng->OneIn(3)) {
    XK_CHECK(schema->AddContainmentEdge(static_cast<int>(rng->Uniform(0, n - 1)),
                                        static_cast<int>(rng->Uniform(1, n - 1)),
                                        rng->OneIn(2))
                 .ok());
  }
}

/// 1-4 keywords, each contained in 1-2 random schema nodes (sorted, distinct,
/// as MasterIndex::SchemaNodesContaining returns them).
std::vector<std::vector<schema::SchemaNodeId>> RandomMapping(
    Random* rng, const schema::SchemaGraph& schema) {
  std::vector<std::vector<schema::SchemaNodeId>> mapping(
      static_cast<size_t>(rng->Uniform(1, 4)));
  for (auto& nodes : mapping) {
    const int count = static_cast<int>(rng->Uniform(1, 2));
    for (int i = 0; i < count; ++i) {
      nodes.push_back(static_cast<int>(rng->Uniform(0, schema.NumNodes() - 1)));
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  }
  return mapping;
}

/// Generates `mapping` with both generators and asserts the same outcome:
/// the same error code, or the same networks in the same order.
void ExpectParity(const schema::SchemaGraph& schema,
                  const std::vector<std::vector<schema::SchemaNodeId>>& mapping,
                  int z) {
  cn::CnGeneratorOptions options;
  options.max_size = z;
  // Small enough to keep the reference fast, and to exercise the bound.
  options.max_networks = 3000;
  const Result<std::vector<cn::CandidateNetwork>> expected =
      testing::ReferenceGenerateCns(schema, options, mapping);
  const Result<std::vector<cn::CandidateNetwork>> actual =
      cn::CnGenerator(&schema, options).Generate(mapping);
  ASSERT_EQ(actual.status().code(), expected.status().code())
      << actual.status().ToString() << " vs " << expected.status().ToString();
  if (!expected.ok()) return;
  ASSERT_EQ(actual->size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    const cn::CandidateNetwork& a = (*actual)[i];
    const cn::CandidateNetwork& e = (*expected)[i];
    ASSERT_TRUE(a.nodes == e.nodes && a.edges == e.edges)
        << "network " << i << ": " << a.ToString(schema) << " vs "
        << e.ToString(schema);
  }
}

class CnGeneratorParity : public ::testing::TestWithParam<int> {};

TEST_P(CnGeneratorParity, MatchesReferenceOnRandomMappings) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  schema::SchemaGraph dblp;
  schema::SchemaGraph tpch;
  XK_ASSERT_OK(datagen::BuildDblpSchema(&dblp).status());
  XK_ASSERT_OK(datagen::BuildTpchSchema(&tpch).status());
  for (int draw = 0; draw < 12; ++draw) {
    schema::SchemaGraph random;
    BuildRandomSchema(&rng, &random);
    for (const schema::SchemaGraph* schema : {&dblp, &tpch, &random}) {
      const auto mapping = RandomMapping(&rng, *schema);
      const int z = static_cast<int>(rng.Uniform(2, 8));
      SCOPED_TRACE(::testing::Message() << "draw " << draw << ", " << mapping.size()
                                        << " keywords, Z=" << z << ", "
                                        << schema->NumNodes() << " schema nodes");
      ExpectParity(*schema, mapping, z);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnGeneratorParity, ::testing::Range(1, 9));

}  // namespace
}  // namespace xk
