// Golden digest of the materialized connection relations. Building a
// decomposition must produce the same catalog byte for byte however it is
// scheduled: every relation's rows in physical order, its clustering key,
// every composite ordering and its lead_runs_in_row_order() flag, and each
// column's DistinctCount. The golden value was recorded from the serial,
// comparison-sorted build; the test builds the same decomposition eight
// times (so a scheduling-dependent build shows up as a differing digest) and
// runs under the tsan preset.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "decomp/decomposition.h"
#include "engine/load_stage.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "test_util.h"

namespace xk {
namespace {

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

uint64_t CatalogDigest(const storage::Catalog& catalog) {
  Digest d;
  for (const std::string& name : catalog.TableNames()) {
    const storage::Table* t = catalog.GetTable(name).MoveValueUnsafe();
    d.Add(name);
    for (const std::string& c : t->column_names()) d.Add(c);
    d.Add(t->NumRows());
    for (storage::RowId r = 0; r < t->NumRows(); ++r) {
      for (int c = 0; c < t->arity(); ++c) d.Add(t->At(r, c));
    }
    d.Add(t->IsClustered());
    if (t->IsClustered()) {
      for (int c : t->clustering_key()) d.Add(static_cast<uint64_t>(c));
    }
    d.Add(t->composite_indexes().size());
    std::vector<storage::RowId> scratch;
    for (const auto& idx : t->composite_indexes()) {
      for (int c : idx->key_columns()) d.Add(static_cast<uint64_t>(c));
      d.Add(idx->lead_runs_in_row_order());
      for (storage::RowId r : idx->LookupPrefix(storage::TupleView(), &scratch)) {
        d.Add(r);
      }
    }
    for (int c = 0; c < t->arity(); ++c) d.Add(t->DistinctCount(c));
  }
  return d.value();
}

class RelationBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpConfig config;
    config.num_conferences = 4;
    config.years_per_conference = 4;
    config.avg_papers_per_year = 12;
    config.avg_citations_per_paper = 6.0;
    config.seed = 11;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
  }

  /// A fresh load of the database with `d` materialized into its catalog.
  std::unique_ptr<engine::LoadedData> Build(const decomp::Decomposition& d) {
    auto data = engine::RunLoadStage(db_->graph(), db_->schema(), db_->tss())
                    .MoveValueUnsafe();
    Status st = engine::MaterializeDecomposition(d, db_->tss(), data.get());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return data;
  }

  std::unique_ptr<datagen::DblpDatabase> db_;
};

TEST_F(RelationBuildTest, XKeywordCatalogDigestIsGoldenOnEveryBuild) {
  XK_ASSERT_OK_AND_ASSIGN(decomp::Decomposition d,
                          decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6));
  ASSERT_EQ(d.fragments.size(), 22u);
  for (int build = 0; build < 8; ++build) {
    std::unique_ptr<engine::LoadedData> data = Build(d);
    ASSERT_EQ(data->catalog.NumTables(), 22u);
    EXPECT_EQ(CatalogDigest(data->catalog), uint64_t{15934746976829888123ULL})
        << "build " << build;
  }
}

TEST_F(RelationBuildTest, MinimalDesignsCatalogDigestIsGolden) {
  std::unique_ptr<engine::LoadedData> data;
  for (decomp::PhysicalDesign physical :
       {decomp::PhysicalDesign::kClusterPerDirection,
        decomp::PhysicalDesign::kHashIndexPerColumn,
        decomp::PhysicalDesign::kNone}) {
    decomp::Decomposition d = decomp::MakeMinimal(db_->tss(), physical);
    if (data == nullptr) {
      data = Build(d);
    } else {
      XK_ASSERT_OK(engine::MaterializeDecomposition(d, db_->tss(), data.get()));
    }
  }
  ASSERT_EQ(data->catalog.NumTables(), 12u);
  EXPECT_EQ(CatalogDigest(data->catalog), uint64_t{664863759542735427ULL});
}

}  // namespace
}  // namespace xk
