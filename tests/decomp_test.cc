// Tests for the decomposition module: classification (Theorem 5.3 and the
// 4NF/inlined/MVD split, pinned to every worked example in Section 5),
// useless-fragment rules, enumeration, coverage, and the Figure-12 algorithm.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "datagen/dblp_gen.h"
#include "datagen/tpch_gen.h"
#include "decomp/classify.h"
#include "decomp/coverage.h"
#include "decomp/decomposition.h"
#include "decomp/enumerate.h"
#include "decomp/relation_builder.h"
#include "schema/decomposer.h"
#include "schema/validator.h"
#include "test_util.h"

namespace xk::decomp {
namespace {

using schema::TssTree;
using schema::TssTreeEdge;

/// FNV-1a over `bytes`, continuing from `h`: an order-sensitive digest for
/// the golden tests below.
uint64_t Fnv(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

class DecompTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tss_ = datagen::BuildTpchSchema(&schema_).MoveValueUnsafe();
  }

  schema::TssId Seg(const char* name) { return *tss_->SegmentByName(name); }
  schema::TssEdgeId E(const char* from, const char* to) {
    return *tss_->FindEdge(Seg(from), Seg(to));
  }

  /// Builds a tree from (from_seg, to_seg) node indexes over named edges.
  TssTree Tree(std::vector<const char*> segs,
               std::vector<std::tuple<int, int, const char*, const char*>> edges) {
    TssTree t;
    for (const char* s : segs) t.nodes.push_back(Seg(s));
    for (auto& [from, to, sf, st] : edges) {
      t.edges.push_back(TssTreeEdge{from, to, E(sf, st)});
    }
    return t;
  }

  schema::SchemaGraph schema_;
  std::unique_ptr<schema::TssGraph> tss_;
};

// --- Classification: every worked example from the paper -------------------

TEST_F(DecompTest, SingleEdgeFragmentsAre4NF) {
  // "Connection relations that correspond to a single edge ... by definition
  // are always in 4NF."
  for (schema::TssEdgeId e = 0; e < tss_->NumEdges(); ++e) {
    TssTree t;
    t.nodes = {tss_->edge(e).from, tss_->edge(e).to};
    t.edges = {TssTreeEdge{0, 1, e}};
    EXPECT_EQ(Classify(t, *tss_), FragmentClass::k4NF)
        << tss_->name(tss_->edge(e).from) << "->" << tss_->name(tss_->edge(e).to);
  }
}

TEST_F(DecompTest, PolIsInlined) {
  // POL (person-order-lineitem): FDs L->O->P but O is no key -> inlined.
  TssTree pol = Tree({"P", "O", "L"}, {{0, 1, "P", "O"}, {1, 2, "O", "L"}});
  EXPECT_EQ(Classify(pol, *tss_), FragmentClass::kInlined);
}

TEST_F(DecompTest, OlpaIs4NF) {
  // OLPa (Figure 9): L is a key (one order, one part per lineitem) -> 4NF.
  TssTree olpa = Tree({"O", "L", "Pa"}, {{0, 1, "O", "L"}, {1, 2, "L", "Pa"}});
  EXPECT_EQ(Classify(olpa, *tss_), FragmentClass::k4NF);
}

TEST_F(DecompTest, SpoIsMvd) {
  // SPO (Figure 11): person with independent service calls and orders.
  TssTree spo = Tree({"S", "P", "O"}, {{1, 0, "P", "S"}, {1, 2, "P", "O"}});
  EXPECT_EQ(Classify(spo, *tss_), FragmentClass::kMVD);
}

TEST_F(DecompTest, PaLolpaIsMvd) {
  // PaLOLPa (Figure 10): O with two independent lineitem branches.
  TssTree t = Tree({"Pa", "L", "O", "L", "Pa"},
                   {{1, 0, "L", "Pa"},
                    {2, 1, "O", "L"},
                    {2, 3, "O", "L"},
                    {3, 4, "L", "Pa"}});
  EXPECT_EQ(Classify(t, *tss_), FragmentClass::kMVD);
}

TEST_F(DecompTest, PartChainIsMvdAtTheMiddle) {
  // Pa -> Pa -> Pa: the middle part has independent super- and sub-parts?
  // No: middle's outward edges are (up: many, down: many) -> MVD.
  TssTree t = Tree({"Pa", "Pa", "Pa"}, {{0, 1, "Pa", "Pa"}, {1, 2, "Pa", "Pa"}});
  EXPECT_EQ(Classify(t, *tss_), FragmentClass::kMVD);
}

TEST_F(DecompTest, LineitemStarIs4NF) {
  // P <- L -> Pa: lineitem determines both its supplier and its part.
  TssTree t = Tree({"P", "L", "Pa"}, {{1, 0, "L", "P"}, {1, 2, "L", "Pa"}});
  EXPECT_EQ(Classify(t, *tss_), FragmentClass::k4NF);
}

TEST_F(DecompTest, KeyOccurrenceDetection) {
  TssTree olpa = Tree({"O", "L", "Pa"}, {{0, 1, "O", "L"}, {1, 2, "L", "Pa"}});
  EXPECT_FALSE(IsKeyOccurrence(olpa, *tss_, 0));  // O fans out to many L
  EXPECT_TRUE(IsKeyOccurrence(olpa, *tss_, 1));   // L determines O and Pa
  EXPECT_FALSE(IsKeyOccurrence(olpa, *tss_, 2));  // Pa referenced by many L
}

// --- Useless fragments ------------------------------------------------------

TEST_F(DecompTest, UselessChoiceFragment) {
  // "The fragment PaLPr is useless since line is a choice".
  TssTree t = Tree({"Pa", "L", "Pr"}, {{1, 0, "L", "Pa"}, {1, 2, "L", "Pr"}});
  EXPECT_TRUE(IsUseless(t, *tss_));
}

TEST_F(DecompTest, UselessTwoContainmentParents) {
  // P -> O <- P.
  TssTree t = Tree({"P", "O", "P"}, {{0, 1, "P", "O"}, {2, 1, "P", "O"}});
  EXPECT_TRUE(IsUseless(t, *tss_));
}

TEST_F(DecompTest, UsefulReferenceSharing) {
  // L -> P <- L (two lineitems supplied by one person) IS possible: the
  // reverse side of a reference edge is to-many.
  TssTree t = Tree({"L", "P", "L"}, {{0, 1, "L", "P"}, {2, 1, "L", "P"}});
  EXPECT_FALSE(IsUseless(t, *tss_));
}

// --- Enumeration ------------------------------------------------------------

TEST_F(DecompTest, EnumerateSizeOneMatchesEdges) {
  EnumerateOptions opts;
  opts.max_size = 1;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> trees, EnumerateTrees(*tss_, opts));
  EXPECT_EQ(trees.size(), static_cast<size_t>(tss_->NumEdges()));
  for (const TssTree& t : trees) XK_EXPECT_OK(t.Validate(*tss_));
}

TEST_F(DecompTest, EnumerateDeduplicatesAndFiltersImpossible) {
  EnumerateOptions opts;
  opts.max_size = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> trees, EnumerateTrees(*tss_, opts));
  std::set<schema::CanonicalCode> keys;
  for (const TssTree& t : trees) {
    EXPECT_TRUE(keys.insert(schema::CanonicalKey(t, *tss_)).second);
    EXPECT_TRUE(schema::IsStructurallyPossible(t, *tss_));
    EXPECT_LE(t.size(), 2);
  }
  // Unfolded trees (Pa-Pa-Pa) are present.
  TssTree chain = Tree({"Pa", "Pa", "Pa"}, {{0, 1, "Pa", "Pa"}, {1, 2, "Pa", "Pa"}});
  EXPECT_TRUE(keys.contains(schema::CanonicalKey(chain, *tss_)));
  // The useless choice fork is not.
  TssTree fork = Tree({"Pa", "L", "Pr"}, {{1, 0, "L", "Pa"}, {1, 2, "L", "Pr"}});
  EXPECT_FALSE(keys.contains(schema::CanonicalKey(fork, *tss_)));
}

TEST_F(DecompTest, EnumerateIncludeEmptyAddsSingletons) {
  EnumerateOptions opts;
  opts.max_size = 0;
  opts.include_empty = true;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> trees, EnumerateTrees(*tss_, opts));
  EXPECT_EQ(trees.size(), static_cast<size_t>(tss_->NumSegments()));
}

TEST_F(DecompTest, EnumerateRespectsResourceCap) {
  EnumerateOptions opts;
  opts.max_size = 6;
  opts.max_trees = 10;
  EXPECT_TRUE(EnumerateTrees(*tss_, opts).status().IsResourceExhausted());
}

// --- Coverage / tiling ------------------------------------------------------

TEST_F(DecompTest, EmbeddingsFindAllOccurrenceMappings) {
  // The single-edge PaPa fragment embeds into the Pa-Pa-Pa chain twice.
  TssTree frag = Tree({"Pa", "Pa"}, {{0, 1, "Pa", "Pa"}}) ;
  TssTree chain = Tree({"Pa", "Pa", "Pa"}, {{0, 1, "Pa", "Pa"}, {1, 2, "Pa", "Pa"}});
  std::vector<Embedding> embeddings = FindEmbeddings(frag, chain, *tss_, 0);
  EXPECT_EQ(embeddings.size(), 2u);
  // Orientation matters: no embedding maps the edge backwards.
  for (const Embedding& e : embeddings) {
    EXPECT_EQ(__builtin_popcount(e.edge_mask), 1);
  }
}

TEST_F(DecompTest, MinJoinTilingPrefersBigFragments) {
  // Example 5.1: CTSSN4 Pr <- L -> ... with the OLPa fragment the network
  // O-L-Pa needs zero joins; with only single edges it needs one.
  TssTree olpa_net = Tree({"O", "L", "Pa"}, {{0, 1, "O", "L"}, {1, 2, "L", "Pa"}});

  Decomposition minimal =
      MakeMinimal(*tss_, PhysicalDesign::kClusterPerDirection);
  std::optional<Tiling> t1 = MinJoinTiling(olpa_net, *tss_, minimal.fragments);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->joins(), 1);

  Fragment olpa;
  olpa.tree = olpa_net;
  olpa.name = MakeFragmentName(olpa.tree, *tss_);
  std::vector<Fragment> with_big = minimal.fragments;
  with_big.push_back(olpa);
  std::optional<Tiling> t2 = MinJoinTiling(olpa_net, *tss_, with_big);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->joins(), 0);
}

TEST_F(DecompTest, TilingOfEmptyNetworkIsEmpty) {
  TssTree single;
  single.nodes = {Seg("P")};
  std::optional<Tiling> t = MinJoinTiling(single, *tss_, {});
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->joins(), 0);
  EXPECT_TRUE(t->pieces.empty());
}

TEST_F(DecompTest, UncoverableNetworkReturnsNullopt) {
  TssTree net = Tree({"P", "O"}, {{0, 1, "P", "O"}});
  EXPECT_FALSE(MinJoinTiling(net, *tss_, {}).has_value());
  EXPECT_FALSE(Covered(net, *tss_, {}, 5));
}

// --- Decomposition policies -------------------------------------------------

TEST_F(DecompTest, FragmentSizeBoundTheorem51) {
  EXPECT_EQ(FragmentSizeBound(6, 2), 2);   // L = ceil(6/3)
  EXPECT_EQ(FragmentSizeBound(6, 0), 6);   // maximal: zero joins
  EXPECT_EQ(FragmentSizeBound(6, 5), 1);   // minimal
  EXPECT_EQ(FragmentSizeBound(7, 2), 3);   // ceil(7/3)
}

TEST_F(DecompTest, MinimalCoversEveryEdgeOnce) {
  Decomposition d = MakeMinimal(*tss_, PhysicalDesign::kHashIndexPerColumn);
  EXPECT_EQ(d.name, "MinNClustIndx");
  EXPECT_EQ(d.fragments.size(), static_cast<size_t>(tss_->NumEdges()));
  for (const Fragment& f : d.fragments) EXPECT_EQ(f.size(), 1);
}

TEST_F(DecompTest, XKeywordDecompositionMeetsJoinBound) {
  const int B = 1;
  const int M = 4;
  XK_ASSERT_OK_AND_ASSIGN(Decomposition d, MakeXKeyword(*tss_, B, M));
  // Every possible network of size <= M is evaluable within B joins.
  EnumerateOptions opts;
  opts.max_size = M;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> networks, EnumerateTrees(*tss_, opts));
  for (const TssTree& net : networks) {
    EXPECT_TRUE(Covered(net, *tss_, d.fragments, B)) << net.ToString(*tss_);
  }
}

// Coverage tracks a network's edges in 32-bit masks: M >= 32 is refused
// up front instead of shifting past the mask width.
TEST_F(DecompTest, XKeywordRejectsNetworksWiderThanTheEdgeMasks) {
  EXPECT_TRUE(MakeXKeyword(*tss_, 2, 32).status().IsInvalidArgument());
  EXPECT_TRUE(MakeXKeyword(*tss_, 0, 64).status().IsInvalidArgument());
  EXPECT_TRUE(MakeInlined(*tss_, 2, 32).status().IsInvalidArgument());
}

TEST_F(DecompTest, XKeywordPrefersNonMvdFragments) {
  XK_ASSERT_OK_AND_ASSIGN(Decomposition d, MakeXKeyword(*tss_, 1, 4));
  size_t mvd = 0;
  for (const Fragment& f : d.fragments) {
    if (Classify(f, *tss_) == FragmentClass::kMVD) ++mvd;
  }
  // Some MVD fragments may be unavoidable, but the bulk must be non-MVD.
  EXPECT_LT(mvd, d.fragments.size() / 2);
}

TEST_F(DecompTest, CompleteContainsAllUsefulFragmentsOfSizeL) {
  XK_ASSERT_OK_AND_ASSIGN(Decomposition d, MakeComplete(*tss_, 2));
  EnumerateOptions opts;
  opts.max_size = 2;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> trees, EnumerateTrees(*tss_, opts));
  EXPECT_EQ(d.fragments.size(), trees.size());
}

TEST_F(DecompTest, CombineDeduplicates) {
  Decomposition a = MakeMinimal(*tss_, PhysicalDesign::kClusterPerDirection);
  XK_ASSERT_OK_AND_ASSIGN(Decomposition b, MakeXKeyword(*tss_, 2, 4));
  Decomposition c = Combine(a, b, *tss_, "combination");
  EXPECT_EQ(c.name, "combination");
  // All of a's single edges are already inside b (step 1 of Figure 12).
  EXPECT_EQ(c.fragments.size(), b.fragments.size());
}

TEST_F(DecompTest, FindFragmentMatchesCanonically) {
  Decomposition d = MakeMinimal(*tss_, PhysicalDesign::kClusterPerDirection);
  TssTree edge = Tree({"P", "O"}, {{0, 1, "P", "O"}});
  EXPECT_GE(d.FindFragment(edge, *tss_), 0);
  TssTree pol = Tree({"P", "O", "L"}, {{0, 1, "P", "O"}, {1, 2, "O", "L"}});
  EXPECT_EQ(d.FindFragment(pol, *tss_), -1);
}

// --- Relation builder --------------------------------------------------------

TEST_F(DecompTest, ConnectionRelationsMaterializeInstances) {
  auto db = testing::MakeFigure1Database();
  auto validation = schema::Validate(db->graph, db->schema).MoveValueUnsafe();
  schema::Decomposer decomposer(&db->graph, &validation, db->tss.get());
  auto objects = decomposer.Run().MoveValueUnsafe();

  Decomposition d = MakeMinimal(*db->tss, PhysicalDesign::kClusterPerDirection);
  storage::Catalog catalog;
  XK_ASSERT_OK(BuildConnectionRelations(d, objects, *db->tss, &catalog));
  EXPECT_EQ(catalog.NumTables(), d.fragments.size());

  // The Pa-Pa relation has exactly the 2 sub-part connections.
  int papa_index = d.FindFragment(
      TssTree{{*db->tss->SegmentByName("Pa"), *db->tss->SegmentByName("Pa")},
              {TssTreeEdge{0, 1, *db->tss->FindEdge(*db->tss->SegmentByName("Pa"),
                                                    *db->tss->SegmentByName("Pa"))}}},
      *db->tss);
  ASSERT_GE(papa_index, 0);
  XK_ASSERT_OK_AND_ASSIGN(
      const storage::Table* papa,
      std::as_const(catalog).GetTable(
          RelationName(d, d.fragments[static_cast<size_t>(papa_index)])));
  EXPECT_EQ(papa->NumRows(), 2u);
  EXPECT_TRUE(papa->frozen());
  EXPECT_TRUE(papa->IsClustered());
}

TEST_F(DecompTest, PhysicalDesignsApplied) {
  auto db = testing::MakeFigure1Database();
  auto validation = schema::Validate(db->graph, db->schema).MoveValueUnsafe();
  schema::Decomposer decomposer(&db->graph, &validation, db->tss.get());
  auto objects = decomposer.Run().MoveValueUnsafe();

  storage::Catalog catalog;
  Decomposition hash = MakeMinimal(*db->tss, PhysicalDesign::kHashIndexPerColumn);
  Decomposition none =
      MakeMinimal(*db->tss, PhysicalDesign::kNone, /*use_indexes_at_runtime=*/false);
  XK_ASSERT_OK(BuildConnectionRelations(hash, objects, *db->tss, &catalog));
  XK_ASSERT_OK(BuildConnectionRelations(none, objects, *db->tss, &catalog));

  XK_ASSERT_OK_AND_ASSIGN(const storage::Table* h,
                          std::as_const(catalog).GetTable(
                              RelationName(hash, hash.fragments[0])));
  EXPECT_NE(h->GetHashIndex(0), nullptr);
  EXPECT_FALSE(h->IsClustered());

  XK_ASSERT_OK_AND_ASSIGN(const storage::Table* no_idx,
                          std::as_const(catalog).GetTable(
                              RelationName(none, none.fragments[0])));
  EXPECT_FALSE(no_idx->HasAnyIndex());
  EXPECT_FALSE(no_idx->IsClustered());
}

// --- Golden outputs of the set-up path -------------------------------------
//
// The Figure-12 build must produce the same trees, in the same order, and the
// same fragments whatever keys, memo or pruning it uses internally. These
// values were recorded from the string-keyed enumeration and the unmemoised
// greedy cover; any change to them is a change of the built decomposition.

/// Count and order-sensitive digest of the emitted trees (each tree's
/// occurrences and edges exactly as emitted).
std::pair<size_t, uint64_t> TreeDigest(const std::vector<TssTree>& trees,
                                       const schema::TssGraph& tss) {
  uint64_t h = kFnvBasis;
  for (const TssTree& t : trees) h = Fnv(h, t.ToString(tss) + "\n");
  return {trees.size(), h};
}

std::string FragmentNames(const Decomposition& d) {
  std::string out;
  for (const Fragment& f : d.fragments) out += f.name + "\n";
  return out;
}

TEST(DecompGoldenTest, EnumerateTreesDblpM6) {
  schema::SchemaGraph schema;
  auto tss = datagen::BuildDblpSchema(&schema).MoveValueUnsafe();
  EnumerateOptions opts;
  opts.max_size = 6;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> trees, EnumerateTrees(*tss, opts));
  EXPECT_EQ(TreeDigest(trees, *tss),
            std::make_pair(size_t{5541}, uint64_t{1964007737463455290ULL}));
}

TEST(DecompGoldenTest, EnumerateTreesTpchM5) {
  schema::SchemaGraph schema;
  auto tss = datagen::BuildTpchSchema(&schema).MoveValueUnsafe();
  EnumerateOptions opts;
  opts.max_size = 5;
  opts.include_empty = true;
  XK_ASSERT_OK_AND_ASSIGN(std::vector<TssTree> trees, EnumerateTrees(*tss, opts));
  EXPECT_EQ(TreeDigest(trees, *tss),
            std::make_pair(size_t{1173}, uint64_t{14922566660037001234ULL}));
}

TEST(DecompGoldenTest, XKeywordFragmentsDblpB2M6) {
  schema::SchemaGraph schema;
  auto tss = datagen::BuildDblpSchema(&schema).MoveValueUnsafe();
  XK_ASSERT_OK_AND_ASSIGN(Decomposition d, MakeXKeyword(*tss, 2, 6));
  EXPECT_EQ(FragmentNames(d),
            "F_Conf_Year_e0.0.1\n"
            "F_Year_Paper_e0.1.1\n"
            "F_Paper_Author_e0.2.1\n"
            "F_Paper_Paper_e1.3.0\n"
            "F_Conf_Year_Paper_e0.0.11.1.2\n"
            "F_Year_Paper_Author_e0.1.11.2.2\n"
            "F_Year_Paper_Paper_e0.1.12.3.1\n"
            "F_Year_Paper_Paper_e0.1.11.3.2\n"
            "F_Conf_Year_Paper_Author_e0.0.11.1.22.2.3\n"
            "F_Conf_Year_Paper_Paper_e0.0.11.1.23.3.2\n"
            "F_Conf_Year_Paper_Paper_e0.0.11.1.22.3.3\n"
            "F_Year_Paper_Paper_Year_e0.1.12.3.13.1.2\n"
            "F_Conf_Year_Paper_Paper_Year_e0.0.11.1.23.3.24.1.3\n"
            "F_Conf_Year_Paper_Paper_Year_e0.0.11.1.22.3.34.1.3\n"
            "F_Paper_Paper_Paper_e1.3.00.3.2\n"
            "F_Paper_Paper_Paper_e1.3.02.3.0\n"
            "F_Paper_Paper_Paper_e1.3.01.3.2\n"
            "F_Paper_Author_Paper_e0.2.12.3.0\n"
            "F_Paper_Author_Paper_e0.2.10.3.2\n"
            "F_Year_Paper_Paper_e0.1.10.1.2\n"
            "F_Paper_Author_Author_e0.2.10.2.2\n"
            "F_Conf_Year_Year_e0.0.10.0.2\n");
}

TEST(DecompGoldenTest, XKeywordFragmentsTpchB2M5) {
  schema::SchemaGraph schema;
  auto tss = datagen::BuildTpchSchema(&schema).MoveValueUnsafe();
  XK_ASSERT_OK_AND_ASSIGN(Decomposition d, MakeXKeyword(*tss, 2, 5));
  EXPECT_EQ(FragmentNames(d),
            "F_P_S_e0.0.1\n"
            "F_P_O_e0.1.1\n"
            "F_P_L_e1.3.0\n"
            "F_O_L_e0.2.1\n"
            "F_L_Pa_e0.4.1\n"
            "F_L_Pr_e0.5.1\n"
            "F_Pa_Pa_e1.6.0\n"
            "F_P_O_L_e0.1.11.2.2\n"
            "F_P_L_O_e1.3.02.2.1\n"
            "F_P_L_Pa_e1.3.01.4.2\n"
            "F_P_L_Pr_e1.3.01.5.2\n"
            "F_O_L_Pa_e0.2.11.4.2\n"
            "F_O_L_Pr_e0.2.11.5.2\n"
            "F_P_O_L_P_e0.1.11.2.22.3.3\n"
            "F_P_O_L_Pa_e0.1.11.2.22.4.3\n"
            "F_P_O_L_Pr_e0.1.11.2.22.5.3\n"
            "F_P_L_O_Pa_e1.3.02.2.11.4.3\n"
            "F_P_L_O_Pr_e1.3.02.2.11.5.3\n"
            "F_Pa_Pa_Pa_e1.6.00.6.2\n"
            "F_Pa_Pa_Pa_e1.6.02.6.0\n"
            "F_L_Pa_Pa_e0.4.12.6.1\n"
            "F_L_Pa_Pa_e0.4.11.6.2\n"
            "F_Pa_Pa_Pa_e1.6.01.6.2\n"
            "F_P_S_L_e0.0.12.3.0\n"
            "F_P_O_O_e0.1.10.1.2\n"
            "F_P_L_L_e1.3.02.3.0\n"
            "F_O_L_L_e0.2.10.2.2\n"
            "F_L_Pa_L_e0.4.12.4.1\n"
            "F_P_S_S_e0.0.10.0.2\n"
            "F_L_Pr_L_e0.5.12.5.1\n");
}

// B = 1 leaves many networks to step 4's greedy MVD cover: 76 fragments.
TEST(DecompGoldenTest, XKeywordFragmentsTpchB1M5) {
  schema::SchemaGraph schema;
  auto tss = datagen::BuildTpchSchema(&schema).MoveValueUnsafe();
  XK_ASSERT_OK_AND_ASSIGN(Decomposition d, MakeXKeyword(*tss, 1, 5));
  EXPECT_EQ(d.fragments.size(), 76u);
  EXPECT_EQ(Fnv(kFnvBasis, FragmentNames(d)), uint64_t{17765250253069231427ULL});
}

}  // namespace
}  // namespace xk::decomp
