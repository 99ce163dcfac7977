// Tests for the optimizer: tiling resolution, plan construction, loop
// ordering and cost estimates. The top-k execution schedule
// (opt::PlanSchedule) is tested in plan_dag_test.

#include <gtest/gtest.h>

#include "cn/cn_generator.h"
#include "cn/ctssn.h"
#include "decomp/relation_builder.h"
#include "engine/load_stage.h"
#include "opt/cost_model.h"
#include "opt/optimizer.h"
#include "opt/tiler.h"
#include "test_util.h"

namespace xk::opt {
namespace {

class OptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeFigure1Database();
    data_ = engine::RunLoadStage(db_->graph, db_->schema, *db_->tss)
                .MoveValueUnsafe();
    minimal_ = decomp::MakeMinimal(*db_->tss,
                                   decomp::PhysicalDesign::kClusterPerDirection);
    XK_ASSERT_OK(engine::MaterializeDecomposition(minimal_, *db_->tss, data_.get()));
  }

  schema::TssId Seg(const char* name) { return *db_->tss->SegmentByName(name); }
  schema::TssEdgeId E(const char* from, const char* to) {
    return *db_->tss->FindEdge(Seg(from), Seg(to));
  }

  /// P <- L -> Pa network with keywords on P (john) and Pa (vcr).
  cn::Ctssn MakeNetwork() {
    cn::Ctssn c;
    c.tree.nodes = {Seg("P"), Seg("L"), Seg("Pa")};
    c.tree.edges = {schema::TssTreeEdge{1, 0, E("L", "P")},
                    schema::TssTreeEdge{1, 2, E("L", "Pa")}};
    c.node_keywords = {{cn::CtssnKeyword{0, FindChild("person", "name")}},
                       {},
                       {cn::CtssnKeyword{1, FindChild("part", "name")}}};
    c.cn_size = 6;
    return c;
  }

  schema::SchemaNodeId FindChild(const char* parent, const char* child) {
    schema::SchemaNodeId p = *db_->schema.NodeByUniqueLabel(parent);
    return *db_->schema.ChildByLabel(p, child);
  }

  NodeFilters MakeFilters(const cn::Ctssn& c) {
    // Filter sets from the master index.
    filters_storage_.clear();
    NodeFilters out(static_cast<size_t>(c.num_nodes()));
    const char* words[] = {"john", "vcr"};
    for (int v = 0; v < c.num_nodes(); ++v) {
      for (const cn::CtssnKeyword& kw : c.node_keywords[static_cast<size_t>(v)]) {
        auto set = std::make_unique<storage::IdSet>();
        for (const keyword::Posting& p :
             data_->master_index.ContainingList(words[kw.keyword])) {
          if (p.schema_node == kw.schema_node) set->insert(p.to_id);
        }
        out[static_cast<size_t>(v)].push_back(set.get());
        filters_storage_.push_back(std::move(set));
      }
    }
    return out;
  }

  std::unique_ptr<testing::Figure1Database> db_;
  std::unique_ptr<engine::LoadedData> data_;
  decomp::Decomposition minimal_;
  std::vector<std::unique_ptr<storage::IdSet>> filters_storage_;
};

TEST_F(OptTest, BestTilingUsesMaterializedRelationsOnly) {
  cn::Ctssn c = MakeNetwork();
  std::optional<ResolvedTiling> tiling =
      BestTiling(c.tree, *db_->tss, minimal_, data_->catalog);
  ASSERT_TRUE(tiling.has_value());
  EXPECT_EQ(tiling->pieces.size(), 2u);  // two edge relations
  EXPECT_EQ(tiling->joins(), 1);
  for (const storage::Table* t : tiling->tables) EXPECT_NE(t, nullptr);
}

TEST_F(OptTest, BestTilingPrefersWiderRelationWhenAvailable) {
  // Materialize a decomposition holding the whole P-L-Pa star.
  decomp::Decomposition star;
  star.name = "star";
  decomp::Fragment f;
  f.tree = MakeNetwork().tree;
  f.name = decomp::MakeFragmentName(f.tree, *db_->tss);
  star.fragments = {f};
  XK_ASSERT_OK(engine::MaterializeDecomposition(star, *db_->tss, data_.get()));
  decomp::Decomposition both = decomp::Combine(minimal_, star, *db_->tss, "both");
  // A combined decomposition owns its own relation namespace; materialize it
  // (the paper's "combination" strategy likewise stores both fragment sets).
  XK_ASSERT_OK(engine::MaterializeDecomposition(both, *db_->tss, data_.get()));

  std::optional<ResolvedTiling> tiling =
      BestTiling(MakeNetwork().tree, *db_->tss, both, data_->catalog);
  ASSERT_TRUE(tiling.has_value());
  EXPECT_EQ(tiling->joins(), 0);
}

TEST_F(OptTest, PlanIsValidAndBindsEveryNode) {
  cn::Ctssn c = MakeNetwork();
  NodeFilters filters = MakeFilters(c);
  Optimizer optimizer(db_->tss.get(), &minimal_, &data_->catalog, &data_->objects);
  XK_ASSERT_OK_AND_ASSIGN(CtssnPlan plan, optimizer.Plan(c, filters));

  EXPECT_EQ(plan.joins, 1);
  EXPECT_EQ(plan.query.steps.size(), 2u);
  XK_EXPECT_OK(plan.query.Validate());
  for (const exec::ColumnRef& src : plan.node_source) {
    EXPECT_GE(src.step, 0);
    EXPECT_GE(src.column, 0);
  }
  EXPECT_EQ(plan.step_signatures.size(), 2u);
  EXPECT_GT(plan.estimated_cost, 0.0);
}

TEST_F(OptTest, PlanAppliesKeywordFiltersOnce) {
  cn::Ctssn c = MakeNetwork();
  NodeFilters filters = MakeFilters(c);
  Optimizer optimizer(db_->tss.get(), &minimal_, &data_->catalog, &data_->objects);
  XK_ASSERT_OK_AND_ASSIGN(CtssnPlan plan, optimizer.Plan(c, filters));
  size_t total_filters = 0;
  for (const exec::JoinStep& s : plan.query.steps) {
    total_filters += s.in_filters.size();
  }
  EXPECT_EQ(total_filters, 2u);  // one per keyword, never duplicated
}

TEST_F(OptTest, FirstStepPrefersKeywordPiece) {
  cn::Ctssn c = MakeNetwork();
  NodeFilters filters = MakeFilters(c);
  Optimizer optimizer(db_->tss.get(), &minimal_, &data_->catalog, &data_->objects);
  XK_ASSERT_OK_AND_ASSIGN(CtssnPlan plan, optimizer.Plan(c, filters));
  EXPECT_FALSE(plan.query.steps[0].in_filters.empty());
}

TEST_F(OptTest, SingleObjectPlanHasNoSteps) {
  cn::Ctssn c;
  c.tree.nodes = {Seg("P")};
  c.node_keywords = {{cn::CtssnKeyword{0, FindChild("person", "name")}}};
  c.cn_size = 0;
  NodeFilters filters = MakeFilters(c);
  Optimizer optimizer(db_->tss.get(), &minimal_, &data_->catalog, &data_->objects);
  XK_ASSERT_OK_AND_ASSIGN(CtssnPlan plan, optimizer.Plan(c, filters));
  EXPECT_TRUE(plan.query.steps.empty());
  EXPECT_EQ(plan.joins, 0);
}

TEST_F(OptTest, MismatchedFiltersRejected) {
  cn::Ctssn c = MakeNetwork();
  Optimizer optimizer(db_->tss.get(), &minimal_, &data_->catalog, &data_->objects);
  EXPECT_TRUE(optimizer.Plan(c, NodeFilters{}).status().IsInvalidArgument());
}

TEST_F(OptTest, UncoverableNetworkReported) {
  decomp::Decomposition empty;
  empty.name = "empty";
  Optimizer optimizer(db_->tss.get(), &empty, &data_->catalog, &data_->objects);
  cn::Ctssn c = MakeNetwork();
  NodeFilters filters = MakeFilters(c);
  EXPECT_TRUE(optimizer.Plan(c, filters).status().IsNotFound());
}

TEST(CostModelTest, ProbeOutputScalesWithDistincts) {
  storage::Table t("t", {"a", "b"});
  for (int64_t i = 0; i < 100; ++i) {
    XK_EXPECT_OK(t.Append(storage::Tuple{i % 10, i}));
  }
  EXPECT_DOUBLE_EQ(EstimateProbeOutput(t, {}, {}), 100.0);
  EXPECT_DOUBLE_EQ(EstimateProbeOutput(t, {0}, {}), 10.0);
  EXPECT_DOUBLE_EQ(EstimateProbeOutput(t, {0}, {0.5}), 5.0);
}

TEST(CostModelTest, FilterSelectivityClamped) {
  EXPECT_DOUBLE_EQ(FilterSelectivity(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(FilterSelectivity(50, 10), 1.0);
  EXPECT_DOUBLE_EQ(FilterSelectivity(5, 0), 1.0);
}

}  // namespace
}  // namespace xk::opt
