// Tests for access paths and join executors, including a property sweep
// asserting that every physical design returns identical probe results.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/random.h"
#include "exec/access_path.h"
#include "exec/block_ops.h"
#include "exec/join_hash_table.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "exec/row_block.h"
#include "test_util.h"

namespace xk::exec {
namespace {

using storage::ObjectId;
using storage::RowId;
using storage::Table;
using storage::Tuple;

/// Builds a 2-column edge-like table with the given physical design.
enum class Physical { kClustered, kComposite, kHash, kNone };

std::unique_ptr<Table> MakeEdgeTable(Physical physical, uint64_t seed,
                                     int rows = 300, int domain = 40) {
  auto t = std::make_unique<Table>("edges", std::vector<std::string>{"src", "dst"});
  Random rng(seed);
  for (int i = 0; i < rows; ++i) {
    XK_EXPECT_OK(
        t->Append(Tuple{rng.Uniform(0, domain - 1), rng.Uniform(0, domain - 1)}));
  }
  switch (physical) {
    case Physical::kClustered:
      XK_EXPECT_OK(t->Cluster({0, 1}));
      XK_EXPECT_OK(t->BuildCompositeIndex({1, 0}));
      break;
    case Physical::kComposite:
      XK_EXPECT_OK(t->BuildCompositeIndex({0, 1}));
      XK_EXPECT_OK(t->BuildCompositeIndex({1, 0}));
      break;
    case Physical::kHash:
      XK_EXPECT_OK(t->BuildHashIndex(0));
      XK_EXPECT_OK(t->BuildHashIndex(1));
      break;
    case Physical::kNone:
      break;
  }
  return t;
}

std::multiset<ObjectId> ProbeDst(const Table& t, ObjectId src, bool use_indexes) {
  std::multiset<ObjectId> out;
  ExecOptions opts{.use_indexes = use_indexes};
  ForEachMatch(t, {ColumnBinding{0, src}}, {}, opts,
               [&](RowId r) {
                 out.insert(t.At(r, 1));
                 return true;
               },
               nullptr);
  return out;
}

TEST(AccessPathTest, ChoiceFollowsPhysicalDesign) {
  ExecOptions opts;
  auto clustered = MakeEdgeTable(Physical::kClustered, 1);
  EXPECT_EQ(ChoosePath(*clustered, {{0, 5}}, opts).kind,
            AccessPathKind::kClusteredRange);
  EXPECT_EQ(ChoosePath(*clustered, {{1, 5}}, opts).kind,
            AccessPathKind::kCompositeIndex);

  auto hash = MakeEdgeTable(Physical::kHash, 1);
  EXPECT_EQ(ChoosePath(*hash, {{0, 5}}, opts).kind, AccessPathKind::kHashIndex);

  auto none = MakeEdgeTable(Physical::kNone, 1);
  EXPECT_EQ(ChoosePath(*none, {{0, 5}}, opts).kind, AccessPathKind::kFullScan);

  // No bindings or disabled indexes -> scan.
  EXPECT_EQ(ChoosePath(*clustered, {}, opts).kind, AccessPathKind::kFullScan);
  ExecOptions no_idx{.use_indexes = false};
  EXPECT_EQ(ChoosePath(*clustered, {{0, 5}}, no_idx).kind,
            AccessPathKind::kFullScan);
}

TEST(AccessPathTest, ChoiceCoversEveryBindingShape) {
  ExecOptions opts;
  // Clustered on (0,1) with a secondary composite on (1,0): col-0 shapes take
  // the clustering, col-1 shapes the secondary, nothing bound scans.
  auto clustered = MakeEdgeTable(Physical::kClustered, 2);
  EXPECT_EQ(ChoosePath(*clustered, {{0, 3}}, opts).kind,
            AccessPathKind::kClusteredRange);
  EXPECT_EQ(ChoosePath(*clustered, {{0, 3}, {1, 4}}, opts).kind,
            AccessPathKind::kClusteredRange);
  EXPECT_EQ(ChoosePath(*clustered, {{1, 4}}, opts).kind,
            AccessPathKind::kCompositeIndex);
  EXPECT_EQ(ChoosePath(*clustered, {}, opts).kind, AccessPathKind::kFullScan);

  // Hash-only table: any bound column probes the hash index.
  auto hash = MakeEdgeTable(Physical::kHash, 2);
  EXPECT_EQ(ChoosePath(*hash, {{1, 4}}, opts).kind, AccessPathKind::kHashIndex);
  EXPECT_EQ(ChoosePath(*hash, {{0, 3}, {1, 4}}, opts).kind,
            AccessPathKind::kHashIndex);
}

TEST(AccessPathTest, CompositeLongestUsablePrefixWins) {
  // Two composite indexes: (1) built first, (1,0) second. A probe binding
  // both columns must pick (1,0) — the longest usable prefix — regardless of
  // binding or build order, touching only exact-match rows.
  auto t = std::make_unique<Table>("edges", std::vector<std::string>{"src", "dst"});
  Random rng(9);
  for (int i = 0; i < 400; ++i) {
    XK_EXPECT_OK(t->Append(Tuple{rng.Uniform(0, 9), rng.Uniform(0, 9)}));
  }
  XK_EXPECT_OK(t->BuildCompositeIndex({1}));
  XK_EXPECT_OK(t->BuildCompositeIndex({1, 0}));

  const ObjectId src = t->At(0, 0);
  const ObjectId dst = t->At(0, 1);
  size_t exact = 0, dst_only = 0;
  for (RowId r = 0; r < 400; ++r) {
    if (t->At(r, 1) == dst) {
      ++dst_only;
      if (t->At(r, 0) == src) ++exact;
    }
  }
  ASSERT_GT(exact, 0u);
  ASSERT_LT(exact, dst_only);  // the short index would touch more rows

  for (const std::vector<ColumnBinding>& bindings :
       {std::vector<ColumnBinding>{{1, dst}, {0, src}},
        std::vector<ColumnBinding>{{0, src}, {1, dst}}}) {
    const PathChoice choice = ChoosePath(*t, bindings, ExecOptions{});
    EXPECT_EQ(choice.kind, AccessPathKind::kCompositeIndex);
    ASSERT_NE(choice.composite, nullptr);
    EXPECT_EQ(choice.composite->key_columns(), (std::vector<int>{1, 0}));
    EXPECT_EQ(choice.prefix_len, 2u);
    EXPECT_EQ(KeyPrefixFromBindings(choice.composite->key_columns(), bindings),
              (std::vector<ObjectId>{dst, src}));

    ProbeStats stats;
    ForEachMatch(*t, bindings, {}, ExecOptions{}, [](RowId) { return true; },
                 &stats);
    EXPECT_EQ(stats.rows_scanned, exact);
  }
}

TEST(ForEachMatchTest, BloomPruneSkipsDeadProbes) {
  auto t = MakeEdgeTable(Physical::kHash, 6, /*rows=*/200, /*domain=*/30);
  storage::BloomFilter bloom(/*expected_keys=*/200);
  for (RowId r = 0; r < 200; ++r) bloom.Add(t->At(r, 0));
  std::vector<ColumnBloom> prune = {{0, &bloom}};

  // A value outside the domain is definitely absent: probe skipped whole.
  ProbeStats dead;
  ForEachMatch(*t, {{0, 1234}}, {}, prune, ExecOptions{},
               [](RowId) { return true; }, &dead);
  EXPECT_EQ(dead.bloom_skips, 1u);
  EXPECT_EQ(dead.rows_scanned, 0u);
  EXPECT_EQ(dead.probes, 1u);

  // A present value must enumerate exactly what the unpruned probe does.
  const ObjectId present = t->At(0, 0);
  std::multiset<ObjectId> with, without;
  ProbeStats live;
  ForEachMatch(*t, {{0, present}}, {}, prune, ExecOptions{},
               [&](RowId r) {
                 with.insert(t->At(r, 1));
                 return true;
               },
               &live);
  EXPECT_EQ(live.bloom_skips, 0u);
  ForEachMatch(*t, {{0, present}}, {}, ExecOptions{},
               [&](RowId r) {
                 without.insert(t->At(r, 1));
                 return true;
               },
               nullptr);
  EXPECT_EQ(with, without);
}

TEST(AccessPathTest, NamesAreStable) {
  EXPECT_STREQ(AccessPathKindToString(AccessPathKind::kClusteredRange),
               "clustered-range");
  EXPECT_STREQ(AccessPathKindToString(AccessPathKind::kFullScan), "full-scan");
}

class AccessPathAgreement : public ::testing::TestWithParam<int> {};

TEST_P(AccessPathAgreement, AllPathsReturnIdenticalRows) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  auto clustered = MakeEdgeTable(Physical::kClustered, seed);
  auto composite = MakeEdgeTable(Physical::kComposite, seed);
  auto hash = MakeEdgeTable(Physical::kHash, seed);
  auto none = MakeEdgeTable(Physical::kNone, seed);
  for (ObjectId src = 0; src < 40; ++src) {
    auto expected = ProbeDst(*none, src, false);
    EXPECT_EQ(ProbeDst(*clustered, src, true), expected) << "src=" << src;
    EXPECT_EQ(ProbeDst(*composite, src, true), expected) << "src=" << src;
    EXPECT_EQ(ProbeDst(*hash, src, true), expected) << "src=" << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessPathAgreement, ::testing::Range(1, 8));

TEST(ForEachMatchTest, InSetFilterAndEarlyStop) {
  auto t = MakeEdgeTable(Physical::kHash, 3);
  storage::IdSet allowed = {1, 2, 3};
  int count = 0;
  ForEachMatch(*t, {}, {ColumnInSet{1, &allowed}}, ExecOptions{},
               [&](RowId r) {
                 EXPECT_TRUE(allowed.contains(t->At(r, 1)));
                 return ++count < 5;  // early stop
               },
               nullptr);
  EXPECT_EQ(count, 5);
}

TEST(ForEachMatchTest, StatsCountProbesAndRows) {
  auto t = MakeEdgeTable(Physical::kNone, 4, /*rows=*/100);
  ProbeStats stats;
  ForEachMatch(*t, {{0, 7}}, {}, ExecOptions{}, [](RowId) { return true; }, &stats);
  EXPECT_EQ(stats.probes, 1u);
  EXPECT_EQ(stats.rows_scanned, 100u);  // full scan touches everything
  EXPECT_LE(stats.rows_matched, stats.rows_scanned);
}

TEST(TableScanIteratorTest, FiltersAndDrains) {
  auto t = MakeEdgeTable(Physical::kNone, 5, /*rows=*/50, /*domain=*/4);
  TableScanIterator it(*t, {ColumnBinding{0, 2}}, {});
  Tuple row;
  size_t n = 0;
  while (it.Next(&row)) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0], 2);
    ++n;
  }
  EXPECT_GT(n, 0u);
  EXPECT_FALSE(it.Next(&row));  // stays drained
}

// --- Join executors ------------------------------------------------------

/// Two-step join: edges(src,dst) |><| edges2(src,dst) on dst == src.
struct JoinFixture {
  std::unique_ptr<Table> left = MakeEdgeTable(Physical::kHash, 11, 150, 25);
  std::unique_ptr<Table> right = MakeEdgeTable(Physical::kHash, 12, 150, 25);

  JoinQuery MakeQuery(const storage::IdSet* left_filter = nullptr) {
    JoinQuery q;
    JoinStep s0;
    s0.table = left.get();
    if (left_filter != nullptr) s0.in_filters.push_back(ColumnInSet{0, left_filter});
    q.steps.push_back(s0);
    JoinStep s1;
    s1.table = right.get();
    s1.eq.push_back({0, ColumnRef{0, 1}});  // right.src == left.dst
    q.steps.push_back(s1);
    return q;
  }
};

TEST(JoinQueryTest, ValidateCatchesBadPlans) {
  JoinFixture f;
  JoinQuery q = f.MakeQuery();
  XK_EXPECT_OK(q.Validate());

  JoinQuery empty;
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());

  JoinQuery cartesian = f.MakeQuery();
  cartesian.steps[1].eq.clear();
  EXPECT_TRUE(cartesian.Validate().IsInvalidArgument());

  JoinQuery forward_ref = f.MakeQuery();
  forward_ref.steps[1].eq[0].second.step = 1;  // self reference
  EXPECT_TRUE(forward_ref.Validate().IsInvalidArgument());

  JoinQuery bad_col = f.MakeQuery();
  bad_col.steps[1].eq[0].first = 9;
  EXPECT_TRUE(bad_col.Validate().IsOutOfRange());
}

TEST(JoinExecutorsTest, NestedLoopAndHashJoinAgree) {
  JoinFixture f;
  JoinQuery q = f.MakeQuery();

  std::multiset<std::vector<ObjectId>> nl_rows;
  NestedLoopExecutor nl(&q, ExecOptions{});
  XK_ASSERT_OK(nl.Run([&](const std::vector<storage::TupleView>& rows) {
    std::vector<ObjectId> flat;
    for (auto view : rows) flat.insert(flat.end(), view.begin(), view.end());
    nl_rows.insert(std::move(flat));
    return true;
  }));

  std::multiset<std::vector<ObjectId>> hj_rows;
  HashJoinExecutor hj(&q);
  XK_ASSERT_OK(hj.Run([&](const std::vector<storage::TupleView>& rows) {
    std::vector<ObjectId> flat;
    for (auto view : rows) flat.insert(flat.end(), view.begin(), view.end());
    hj_rows.insert(std::move(flat));
    return true;
  }));

  EXPECT_FALSE(nl_rows.empty());
  EXPECT_EQ(nl_rows, hj_rows);
}

TEST(JoinExecutorsTest, LimitStopsNestedLoop) {
  JoinFixture f;
  JoinQuery q = f.MakeQuery();
  size_t count = 0;
  NestedLoopExecutor nl(&q, ExecOptions{});
  XK_ASSERT_OK(nl.Run(
      [&](const std::vector<storage::TupleView>&) {
        ++count;
        return true;
      },
      /*limit=*/7));
  EXPECT_EQ(count, 7u);
}

TEST(JoinExecutorsTest, InFilterRestrictsBothExecutors) {
  JoinFixture f;
  storage::IdSet filter = {0, 1, 2};
  JoinQuery q = f.MakeQuery(&filter);

  size_t nl_count = 0;
  NestedLoopExecutor nl(&q, ExecOptions{});
  XK_ASSERT_OK(nl.Run([&](const std::vector<storage::TupleView>& rows) {
    EXPECT_TRUE(filter.contains(rows[0][0]));
    ++nl_count;
    return true;
  }));

  size_t hj_count = 0;
  HashJoinExecutor hj(&q);
  XK_ASSERT_OK(hj.Run([&](const std::vector<storage::TupleView>& rows) {
    EXPECT_TRUE(filter.contains(rows[0][0]));
    ++hj_count;
    return true;
  }));
  EXPECT_EQ(nl_count, hj_count);
}

// --- Vectorized execution ------------------------------------------------

/// Ordered row-id trace of one probe, with the path chosen by `opts`.
std::vector<RowId> ProbeTrace(const Table& t,
                              const std::vector<ColumnBinding>& bindings,
                              const std::vector<ColumnInSet>& in_filters,
                              ExecOptions opts, ProbeStats* stats = nullptr) {
  std::vector<RowId> out;
  ForEachMatch(t, bindings, in_filters, opts,
               [&](RowId r) {
                 out.push_back(r);
                 return true;
               },
               stats);
  return out;
}

/// Row path vs block path must emit the exact same row-id sequence — across
/// every physical design, binding shape, and block size, including blocks of
/// one row, a block size that never divides the table, empty results, and
/// filters that kill entire blocks.
class VectorizedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(VectorizedDifferential, RowAndBlockPathsAreByteIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  storage::IdSet odd;
  for (ObjectId v = 1; v < 20; v += 2) odd.insert(v);
  storage::IdSet nothing = {777};  // outside the value domain
  storage::IdSet one = {3};        // small enough for a keyword seek
  storage::IdSet pair = {5, 9};

  struct Case {
    std::vector<ColumnBinding> bindings;
    std::vector<ColumnInSet> filters;
  };
  const std::vector<Case> cases = {
      {{}, {}},                       // unfiltered full scan
      {{{0, 7}}, {}},                 // one binding (index-servable)
      {{{0, 7}, {1, 3}}, {}},         // two bindings
      {{{0, 7}}, {{1, &odd}}},        // binding + in-set
      {{}, {{0, &odd}, {1, &odd}}},   // in-sets only
      {{{0, 10'000}}, {}},            // no matching rows at all
      {{}, {{0, &nothing}}},          // every block fully filtered
      {{}, {{1, &one}}},              // keyword seek on the second column
      {{}, {{0, &pair}, {1, &odd}}},  // keyword seek, second filter checked
  };

  for (Physical physical :
       {Physical::kClustered, Physical::kComposite, Physical::kHash,
        Physical::kNone}) {
    // 301 rows: no block size below divides it, so the tail block is partial.
    auto t = MakeEdgeTable(physical, seed, /*rows=*/301, /*domain=*/20);
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      const Case& c = cases[ci];
      ExecOptions row_opts;
      row_opts.vectorized = false;
      ProbeStats row_stats;
      const std::vector<RowId> expected =
          ProbeTrace(*t, c.bindings, c.filters, row_opts, &row_stats);
      // 15/16/17 straddle the SIMD kernels' 8-candidate groups (one short,
      // exact multiples, one ragged-tail lane).
      for (size_t bs : {size_t{1}, size_t{7}, size_t{15}, size_t{16},
                        size_t{17}, size_t{1024}}) {
        ExecOptions blk_opts;
        blk_opts.block_size = bs;
        ProbeStats blk_stats;
        EXPECT_EQ(ProbeTrace(*t, c.bindings, c.filters, blk_opts, &blk_stats),
                  expected)
            << "physical=" << static_cast<int>(physical) << " case=" << ci
            << " block_size=" << bs;
        // Without an early stop, the block path scans and matches the exact
        // same rows the row path does.
        EXPECT_EQ(blk_stats.rows_scanned, row_stats.rows_scanned);
        EXPECT_EQ(blk_stats.rows_matched, row_stats.rows_matched);
        EXPECT_EQ(blk_stats.probes, row_stats.probes);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedDifferential, ::testing::Range(1, 6));

TEST(ForEachMatchBlockTest, EarlyStopAndBloomPruneMatchRowPath) {
  auto t = MakeEdgeTable(Physical::kHash, 6, /*rows=*/200, /*domain=*/30);
  // Early stop: the first 5 matches are the same rows the row path yields.
  ExecOptions row_opts;
  row_opts.vectorized = false;
  std::vector<RowId> expected;
  ForEachMatch(*t, {}, {}, row_opts,
               [&](RowId r) {
                 expected.push_back(r);
                 return expected.size() < 5;
               },
               nullptr);
  std::vector<RowId> got;
  ForEachMatch(*t, {}, {}, ExecOptions{.block_size = 7},
               [&](RowId r) {
                 got.push_back(r);
                 return got.size() < 5;
               },
               nullptr);
  EXPECT_EQ(got, expected);

  // Bloom prune short-circuits before any block is formed.
  storage::BloomFilter bloom(/*expected_keys=*/200);
  for (RowId r = 0; r < 200; ++r) bloom.Add(t->At(r, 0));
  ProbeStats dead;
  ForEachMatch(*t, {{0, 1234}}, {}, {{0, &bloom}}, ExecOptions{},
               [](RowId) { return true; }, &dead);
  EXPECT_EQ(dead.bloom_skips, 1u);
  EXPECT_EQ(dead.rows_scanned, 0u);
}

TEST(SelectionKernelTest, CompactAscendingWithoutAllocation) {
  auto t = MakeEdgeTable(Physical::kNone, 8, /*rows=*/64, /*domain=*/4);
  RowBlock block;
  block.Reset(t->arity(), 64);
  for (size_t i = 0; i < 64; ++i) block.row_ids[i] = static_cast<RowId>(i);
  block.SelectAll(64);

  const ObjectId v = t->At(0, 0);
  size_t n = SelEqual(*t, &block, 0, v);
  EXPECT_EQ(n, block.num_selected);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(t->At(block.row_ids[block.sel[i]], 0), v);
    if (i > 0) EXPECT_LT(block.sel[i - 1], block.sel[i]);  // ascending
  }

  storage::IdSet none = {999};
  EXPECT_EQ(SelInSet(*t, &block, 1, none), 0u);
  EXPECT_EQ(block.num_selected, 0u);
}

TEST(ScanBlockIteratorTest, MatchesTableScanIteratorThroughAdapter) {
  auto t = MakeEdgeTable(Physical::kNone, 21, /*rows=*/133, /*domain=*/6);
  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    ExecOptions opts;
    opts.block_size = bs;
    ScanBlockIterator blocks(*t, {ColumnBinding{0, 2}}, {}, opts);
    EXPECT_EQ(blocks.path(), AccessPathKind::kFullScan);
    BlockRowAdapter rows(&blocks);
    TableScanIterator expected(*t, {ColumnBinding{0, 2}}, {});
    Tuple a, b;
    size_t n = 0;
    while (true) {
      const bool more_expected = expected.Next(&a);
      ASSERT_EQ(rows.Next(&b), more_expected) << "block_size=" << bs;
      if (!more_expected) break;
      EXPECT_EQ(b, a) << "row " << n << " block_size=" << bs;
      ++n;
    }
    EXPECT_GT(n, 0u);
    EXPECT_FALSE(rows.Next(&b));  // stays drained
  }

  // A scan with no survivors produces no blocks.
  ScanBlockIterator empty(*t, {ColumnBinding{0, 10'000}}, {}, ExecOptions{});
  RowBlock block;
  EXPECT_FALSE(empty.Next(&block));
}

TEST(IndexNestedLoopBlockIteratorTest, MatchesRowNestedLoopJoin) {
  JoinFixture f;
  JoinQuery q = f.MakeQuery();

  std::vector<std::vector<ObjectId>> expected;
  NestedLoopExecutor nl(&q, ExecOptions{});
  XK_ASSERT_OK(nl.Run([&](const std::vector<storage::TupleView>& rows) {
    std::vector<ObjectId> flat;
    for (auto view : rows) flat.insert(flat.end(), view.begin(), view.end());
    expected.push_back(std::move(flat));
    return true;
  }));
  ASSERT_FALSE(expected.empty());

  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    ExecOptions opts;
    opts.block_size = bs;
    ScanBlockIterator outer(*f.left, {}, {}, opts);
    // right.src (col 0) == left.dst (col 1), as in MakeQuery.
    IndexNestedLoopBlockIterator join(
        &outer, *f.right, {IndexNestedLoopBlockIterator::JoinKey{0, 1}}, {},
        opts);
    BlockRowAdapter rows(&join);
    Tuple row;
    std::vector<std::vector<ObjectId>> got;
    while (rows.Next(&row)) got.push_back(row);
    EXPECT_EQ(got, expected) << "block_size=" << bs;
  }
}

TEST(JoinExecutorsTest, HashJoinVectorizedMatchesLegacyExactly) {
  JoinFixture f;
  storage::IdSet filter = {0, 1, 2, 3};
  JoinQuery q = f.MakeQuery(&filter);

  auto collect = [&](ExecOptions opts) {
    std::vector<std::vector<ObjectId>> out;
    HashJoinExecutor hj(&q, opts);
    XK_EXPECT_OK(hj.Run([&](const std::vector<storage::TupleView>& rows) {
      std::vector<ObjectId> flat;
      for (auto view : rows) flat.insert(flat.end(), view.begin(), view.end());
      out.push_back(std::move(flat));
      return true;
    }));
    return out;
  };

  ExecOptions legacy;
  legacy.vectorized = false;
  const auto expected = collect(legacy);
  EXPECT_FALSE(expected.empty());
  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    ExecOptions vec;
    vec.block_size = bs;
    EXPECT_EQ(collect(vec), expected) << "block_size=" << bs;
  }
}

// --- JoinHashTable -------------------------------------------------------

TEST(JoinHashTableTest, ChainsPreserveInsertionOrderThroughGrowth) {
  JoinHashTable table(2);  // no Reserve: exercises mid-stream rehashing
  constexpr uint32_t kRows = 1000;
  constexpr ObjectId kKeys = 37;
  for (uint32_t r = 0; r < kRows; ++r) {
    const ObjectId key[2] = {r % kKeys, (r % kKeys) * 2};
    table.Insert(key, r);
  }
  EXPECT_EQ(table.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_EQ(table.num_rows(), static_cast<size_t>(kRows));

  for (ObjectId k = 0; k < kKeys; ++k) {
    const ObjectId key[2] = {k, k * 2};
    std::vector<uint32_t> rows;
    for (uint32_t n = table.Lookup(key); n != JoinHashTable::kNil;
         n = table.NextMatch(n)) {
      rows.push_back(table.MatchRow(n));
    }
    std::vector<uint32_t> want;
    for (uint32_t r = static_cast<uint32_t>(k); r < kRows; r += kKeys) {
      want.push_back(r);
    }
    EXPECT_EQ(rows, want) << "key " << k;
  }

  const ObjectId missing[2] = {5, 11};  // second id never pairs with first
  EXPECT_EQ(table.Lookup(missing), JoinHashTable::kNil);
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(JoinHashTableTest, LookupBatchAgreesWithScalarLookup) {
  JoinHashTable table(1);
  table.Reserve(200);
  for (uint32_t r = 0; r < 200; ++r) {
    const ObjectId k = r % 50;
    table.Insert(&k, r);
  }
  // 130 keys spans two hash chunks and includes 80 missing keys.
  std::vector<ObjectId> keys;
  for (ObjectId k = 0; k < 130; ++k) keys.push_back(k);
  std::vector<uint32_t> heads(keys.size());
  table.LookupBatch(keys.data(), keys.size(), heads.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(heads[i], table.Lookup(&keys[i])) << "key " << keys[i];
    if (keys[i] >= 50) EXPECT_EQ(heads[i], JoinHashTable::kNil);
  }
}

// --- SIMD kernel dispatch -------------------------------------------------

/// Scalar-pinned vs dispatched kernels must be byte-identical on every
/// surface: selection traces, hash-table probes, and whole-table builds —
/// across seeds, block sizes straddling the 8-lane groups, and
/// duplicate-heavy key distributions.
class ScalarVsSimdKernels : public ::testing::TestWithParam<int> {};

TEST_P(ScalarVsSimdKernels, ProbeTracesAreByteIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  storage::IdSet small_set = {1, 3};                 // ladder path
  storage::IdSet big_set = {0, 2, 4, 6, 8, 10, 12};  // hash-set path

  struct Case {
    std::vector<ColumnBinding> bindings;
    std::vector<ColumnInSet> filters;
  };
  const std::vector<Case> cases = {
      {{{0, 3}}, {}},
      {{{0, 3}, {1, 5}}, {}},
      {{{0, 3}}, {{1, &small_set}}},
      {{}, {{0, &small_set}, {1, &big_set}}},
  };

  for (int domain : {5, 40}) {  // 5 = duplicate-heavy (~60 rows per value)
    auto t = MakeEdgeTable(Physical::kNone, seed, /*rows=*/301, domain);
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      const Case& c = cases[ci];
      for (size_t bs : {size_t{1}, size_t{7}, size_t{15}, size_t{16},
                        size_t{17}, size_t{1024}}) {
        ExecOptions scalar_opts;
        scalar_opts.block_size = bs;
        scalar_opts.force_scalar_kernels = true;
        ProbeStats scalar_stats;
        const std::vector<RowId> expected =
            ProbeTrace(*t, c.bindings, c.filters, scalar_opts, &scalar_stats);
        ExecOptions simd_opts;
        simd_opts.block_size = bs;
        ProbeStats simd_stats;
        EXPECT_EQ(ProbeTrace(*t, c.bindings, c.filters, simd_opts, &simd_stats),
                  expected)
            << "domain=" << domain << " case=" << ci << " block_size=" << bs;
        EXPECT_EQ(simd_stats.rows_scanned, scalar_stats.rows_scanned);
        EXPECT_EQ(simd_stats.rows_matched, scalar_stats.rows_matched);
      }
    }
  }
}

TEST_P(ScalarVsSimdKernels, HashTableArmsAgreeOnDuplicateHeavyKeys) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Random rng(seed);
  for (int key_width : {1, 2}) {
    // ~8 duplicate rows per distinct key; enough rows to force rehashes and
    // straddle the 64-key hash/probe chunks.
    const uint32_t rows = 333;
    std::vector<ObjectId> keys(rows * static_cast<size_t>(key_width));
    for (auto& v : keys) v = rng.Uniform(0, 40);
    JoinHashTable scalar_table(key_width, /*force_scalar=*/true);
    JoinHashTable simd_table(key_width);
    scalar_table.Reserve(rows);
    simd_table.Reserve(rows);
    for (uint32_t r = 0; r < rows; ++r) {
      scalar_table.Insert(keys.data() + r * static_cast<size_t>(key_width), r);
    }
    simd_table.InsertBatch(keys.data(), rows, /*first_row=*/0);
    ASSERT_EQ(simd_table.num_keys(), scalar_table.num_keys());
    ASSERT_EQ(simd_table.num_rows(), scalar_table.num_rows());

    // Probe with the build keys plus misses, batched on both tables, and
    // walk every chain: the row sequences must match node for node.
    std::vector<ObjectId> probes = keys;
    for (int i = 0; i < 64 * key_width; ++i) probes.push_back(1000 + i);
    const size_t n = probes.size() / static_cast<size_t>(key_width);
    std::vector<uint32_t> scalar_heads(n), simd_heads(n);
    scalar_table.LookupBatch(probes.data(), n, scalar_heads.data());
    simd_table.LookupBatch(probes.data(), n, simd_heads.data());
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t> scalar_rows, simd_rows;
      for (uint32_t node = scalar_heads[i]; node != JoinHashTable::kNil;
           node = scalar_table.NextMatch(node)) {
        scalar_rows.push_back(scalar_table.MatchRow(node));
      }
      for (uint32_t node = simd_heads[i]; node != JoinHashTable::kNil;
           node = simd_table.NextMatch(node)) {
        simd_rows.push_back(simd_table.MatchRow(node));
      }
      EXPECT_EQ(simd_rows, scalar_rows) << "key_width=" << key_width
                                        << " probe=" << i;
      // And the single-key path agrees with the batch on the same table.
      EXPECT_EQ(simd_table.Lookup(
                    probes.data() + i * static_cast<size_t>(key_width)),
                simd_heads[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalarVsSimdKernels, ::testing::Range(1, 6));

namespace hashinv {

/// Modular inverse of an odd 64-bit constant (Newton: x *= 2 - a*x).
uint64_t InvMul(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

/// Inverse of z = x ^ (x >> s).
uint64_t UnXorShift(uint64_t z, int s) {
  uint64_t x = z;
  for (int i = 0; i < 6; ++i) x = z ^ (x >> s);
  return x;
}

/// Inverts the width-1 join-key hash: every stage (xorshift, odd multiply,
/// constant xor) is a bijection on 64 bits, so any target hash maps back to
/// exactly one key.
ObjectId KeyForHash(uint64_t h) {
  h = UnXorShift(h, 31);
  h *= InvMul(0x94d049bb133111ebULL);
  h = UnXorShift(h, 27);
  h *= InvMul(0xbf58476d1ce4e5b9ULL);
  h = UnXorShift(h, 30);
  h *= InvMul(1099511628211ULL);  // FNV prime
  return static_cast<ObjectId>(h ^ 1469598103934665603ULL);  // FNV basis
}

}  // namespace hashinv

TEST(JoinHashTableTest, TagCollisionsResolveByFullHash) {
  // The group-probe parks on the hash's top-32-bit tag and verifies the full
  // hash afterwards; random keys hit a tag-equal-but-hash-unequal slot with
  // probability ~2^-32, so build the collision deliberately by inverting the
  // (bijective) hash chain. Slot layout with 32 slots (Reserve(20)):
  //   h_far  -> home 0x10, different tag — occupies the walk's first slot
  //   h_near -> home 0x11, SAME tag as h_probe — the false park target
  //   h_probe-> home 0x10, walks over h_far, parks on h_near's slot, and
  //             must resume past it on the full-hash mismatch.
  const uint64_t h_probe = (0xDEADBEEFULL << 32) | 0x10;
  const uint64_t h_near = h_probe ^ 1;                    // same tag
  const uint64_t h_far = (0x0BADF00DULL << 32) | 0x10;    // same home slot
  const ObjectId k_probe = hashinv::KeyForHash(h_probe);
  const ObjectId k_near = hashinv::KeyForHash(h_near);
  const ObjectId k_far = hashinv::KeyForHash(h_far);
  ASSERT_EQ(simd::HashTupleFnv(&k_probe, 1), h_probe);
  ASSERT_EQ(simd::HashTupleFnv(&k_near, 1), h_near);
  ASSERT_EQ(simd::HashTupleFnv(&k_far, 1), h_far);

  for (bool insert_probe_key : {false, true}) {
    JoinHashTable scalar_table(1, /*force_scalar=*/true);
    JoinHashTable simd_table(1);
    for (JoinHashTable* t : {&scalar_table, &simd_table}) {
      t->Reserve(20);
      t->Insert(&k_far, 0);
      t->Insert(&k_near, 1);
      t->Insert(&k_near, 2);  // chained duplicate behind the false park
      if (insert_probe_key) t->Insert(&k_probe, 3);
    }
    const ObjectId probes[] = {k_probe, k_near, k_far};
    uint32_t scalar_heads[3], simd_heads[3];
    scalar_table.LookupBatch(probes, 3, scalar_heads);
    simd_table.LookupBatch(probes, 3, simd_heads);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(simd_heads[i], scalar_heads[i])
          << "insert_probe_key=" << insert_probe_key << " probe=" << i;
      EXPECT_EQ(simd_heads[i], simd_table.Lookup(&probes[i]));
    }
    // The collision probe must land on its own chain or miss — never on the
    // tag-equal neighbor's chain.
    if (insert_probe_key) {
      ASSERT_NE(simd_heads[0], JoinHashTable::kNil);
      EXPECT_EQ(simd_table.MatchRow(simd_heads[0]), 3u);
    } else {
      EXPECT_EQ(simd_heads[0], JoinHashTable::kNil);
    }
    EXPECT_EQ(simd_table.MatchRow(simd_heads[1]), 1u);
  }
}

TEST(SelectionKernelTest, InSetLadderCoversSetSizesOneThroughFive) {
  // Sizes 1-4 take the unrolled compare ladder, size 5 the hash-set probe;
  // all must agree with a by-hand filter, scalar and dispatched.
  auto t = MakeEdgeTable(Physical::kNone, 13, /*rows=*/100, /*domain=*/8);
  for (size_t set_size = 1; set_size <= 5; ++set_size) {
    storage::IdSet set;
    for (ObjectId v = 0; v < static_cast<ObjectId>(set_size); ++v) {
      set.insert(v * 2);  // {0}, {0,2}, ... {0,2,4,6,8}
    }
    for (bool force_scalar : {false, true}) {
      RowBlock block;
      block.Reset(t->arity(), 128);
      for (size_t i = 0; i < 100; ++i) block.row_ids[i] = static_cast<RowId>(i);
      block.SelectAll(100);
      const size_t n = SelInSet(*t, &block, 1, set, force_scalar);
      std::vector<RowId> got(block.sel.begin(), block.sel.begin() + n);
      std::vector<RowId> want;
      for (RowId r = 0; r < 100; ++r) {
        if (set.contains(t->At(r, 1))) want.push_back(r);
      }
      EXPECT_EQ(got, want) << "set_size=" << set_size
                           << " force_scalar=" << force_scalar;
    }
  }
}

TEST(IndexNestedLoopBlockIteratorTest, InnerBloomsPruneWithoutChangingRows) {
  auto outer_t = MakeEdgeTable(Physical::kNone, 31, /*rows=*/150, /*domain=*/30);
  auto inner_t = MakeEdgeTable(Physical::kHash, 32, /*rows=*/150, /*domain=*/30);

  // Bloom over the inner join column's actual values: outer rows joining on
  // a value the inner side never has are pruned without probing.
  storage::BloomFilter bloom(inner_t->NumRows());
  for (RowId r = 0; r < inner_t->NumRows(); ++r) bloom.Add(inner_t->At(r, 0));

  auto run = [&](bool with_blooms, ProbeStats* stats) {
    ScanBlockIterator outer(*outer_t, {}, {});
    IndexNestedLoopBlockIterator join(
        &outer, *inner_t, {{.inner_column = 0, .outer_column = 1}});
    if (with_blooms) join.set_inner_blooms({ColumnBloom{0, &bloom}});
    std::vector<std::vector<ObjectId>> rows;
    RowBlock block;
    while (join.Next(&block)) {
      for (size_t i = 0; i < block.num_selected; ++i) {
        std::vector<ObjectId> row;
        for (int c = 0; c < join.arity(); ++c) {
          row.push_back(block.column(c)[block.sel[i]]);
        }
        rows.push_back(std::move(row));
      }
    }
    *stats = join.stats();
    return rows;
  };

  ProbeStats plain_stats, bloom_stats;
  const auto expected = run(/*with_blooms=*/false, &plain_stats);
  EXPECT_EQ(run(/*with_blooms=*/true, &bloom_stats), expected);
  // Every pruned outer row still counts as a (bloom-skipped) probe, so probe
  // totals match the per-row accounting; scanned rows can only shrink.
  EXPECT_EQ(bloom_stats.probes, plain_stats.probes);
  EXPECT_LE(bloom_stats.rows_scanned, plain_stats.rows_scanned);
  EXPECT_EQ(bloom_stats.rows_matched, plain_stats.rows_matched);
}

// --- Keyword seek ----------------------------------------------------------

/// Physical designs of the keyword-seek differential. kClustered mirrors a
/// connection relation: clustered on (0,1,2) plus one composite index per
/// further direction, led by that column. kUnorderedComposite has composite
/// indexes on an unclustered table, whose runs are not in row order.
enum class SeekDesign { kClustered, kUnorderedComposite, kHash, kNone };

/// A 3-column relation of random tuples, every fifth one appended twice.
std::unique_ptr<Table> MakeRelation(SeekDesign design, uint64_t seed) {
  auto t = std::make_unique<Table>("rel", std::vector<std::string>{"a", "b", "c"});
  Random rng(seed);
  for (int i = 0; i < 1500; ++i) {
    const Tuple row{rng.Uniform(0, 79), rng.Uniform(0, 59), rng.Uniform(0, 99)};
    XK_EXPECT_OK(t->Append(row));
    if (i % 5 == 0) XK_EXPECT_OK(t->Append(row));
  }
  switch (design) {
    case SeekDesign::kClustered:
      XK_EXPECT_OK(t->Cluster({0, 1, 2}));
      XK_EXPECT_OK(t->BuildCompositeIndex({1, 0, 2}));
      XK_EXPECT_OK(t->BuildCompositeIndex({2, 0}));  // a prefix still qualifies
      break;
    case SeekDesign::kUnorderedComposite:
      XK_EXPECT_OK(t->BuildCompositeIndex({1, 2, 0}));
      XK_EXPECT_OK(t->BuildCompositeIndex({2, 1, 0}));
      break;
    case SeekDesign::kHash:
      for (int c = 0; c < 3; ++c) XK_EXPECT_OK(t->BuildHashIndex(c));
      break;
    case SeekDesign::kNone:
      break;
  }
  t->Freeze();
  return t;
}

/// Row ids the probe hands to its sink until the sink has seen `limit`.
std::vector<RowId> StoppedTrace(const Table& t,
                                const std::vector<ColumnInSet>& in_filters,
                                const ExecOptions& opts, size_t limit,
                                ProbeStats* stats, AccessPathKind* kind) {
  std::vector<RowId> out;
  *kind = ForEachMatch(t, {}, in_filters, opts,
                       [&](RowId r) {
                         out.push_back(r);
                         return out.size() < limit;
                       },
                       stats);
  return out;
}

class KeywordSeekDifferential : public ::testing::TestWithParam<int> {};

/// The seek against the same probe with use_indexes off (a plain scan, code
/// that never looks at an index): identical row sequences, whatever stops
/// the sink.
TEST_P(KeywordSeekDifferential, SeekEqualsScanUnderEarlyStops) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Random rng(seed * 7919);
  auto pick = [&](size_t n, ObjectId domain) {
    storage::IdSet set;
    while (set.size() < n) set.insert(rng.Uniform(0, domain - 1));
    return set;
  };
  const storage::IdSet a3 = pick(3, 80);
  const storage::IdSet b1 = pick(1, 60);
  const storage::IdSet b4 = pick(4, 60);
  const storage::IdSet c5 = pick(5, 100);
  const storage::IdSet wide = pick(70, 80);  // the cost rule keeps the scan
  const storage::IdSet empty;
  const storage::IdSet absent = {9999, 10'000};

  struct Case {
    const char* name;
    std::vector<ColumnInSet> filters;
    bool seekable;  // true when a seek-capable design must seek
  };
  const std::vector<Case> cases = {
      {"clustered lead", {{0, &a3}}, true},
      {"composite lead, one run", {{1, &b1}}, true},
      {"composite lead, merged runs", {{1, &b4}}, true},
      {"third column", {{2, &c5}}, true},
      {"two in-filters", {{0, &wide}, {2, &c5}}, true},
      {"two in-filters, same column", {{1, &b4}, {1, &b1}}, true},
      {"empty set", {{1, &empty}}, true},
      {"absent values", {{0, &absent}}, true},
      {"too wide to seek", {{0, &wide}}, false},
  };

  for (SeekDesign design : {SeekDesign::kClustered, SeekDesign::kUnorderedComposite,
                            SeekDesign::kHash, SeekDesign::kNone}) {
    auto t = MakeRelation(design, seed);
    for (const Case& c : cases) {
      for (bool vectorized : {false, true}) {
        for (size_t block_size : {size_t{0}, size_t{7}}) {
          if (!vectorized && block_size != 0) continue;
          ExecOptions seek_opts;
          seek_opts.vectorized = vectorized;
          seek_opts.block_size = block_size;
          ExecOptions scan_opts = seek_opts;
          scan_opts.use_indexes = false;
          for (size_t limit : {size_t{1}, size_t{5}, SIZE_MAX}) {
            const std::string where =
                std::string(c.name) + " design=" +
                std::to_string(static_cast<int>(design)) +
                " vectorized=" + std::to_string(vectorized) +
                " block_size=" + std::to_string(block_size) +
                " limit=" + std::to_string(limit);
            ProbeStats seek_stats, scan_stats;
            AccessPathKind seek_kind, scan_kind;
            const std::vector<RowId> seek =
                StoppedTrace(*t, c.filters, seek_opts, limit, &seek_stats, &seek_kind);
            const std::vector<RowId> scan =
                StoppedTrace(*t, c.filters, scan_opts, limit, &scan_stats, &scan_kind);
            EXPECT_EQ(seek, scan) << where;
            EXPECT_EQ(scan_kind, AccessPathKind::kFullScan) << where;
            // The row path counts matches row by row; the block path counts
            // whole blocks, whose make-up differs between seek and scan, so
            // its counts agree once the probe runs to the end.
            if (!vectorized || limit == SIZE_MAX) {
              EXPECT_EQ(seek_stats.rows_matched, scan_stats.rows_matched) << where;
            }
            // Hash indexes never seek: only key-ordered runs are merged.
            const bool must_seek = c.seekable && design == SeekDesign::kClustered;
            EXPECT_EQ(seek_kind == AccessPathKind::kKeywordSeek, must_seek) << where;
            if (must_seek && limit == SIZE_MAX) {
              EXPECT_LT(seek_stats.rows_scanned, t->NumRows() / 4) << where;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeywordSeekDifferential, ::testing::Range(1, 6));

TEST(KeywordSeekTest, RowOrderFollowsKeyShape) {
  // Clustered on (0,1,2): an index keyed (lead, a prefix of the clustering
  // key without the lead) has row-ordered runs; any other key does not.
  auto t = std::make_unique<Table>("rel", std::vector<std::string>{"a", "b", "c"});
  XK_EXPECT_OK(t->Append(Tuple{0, 5, 9}));
  XK_EXPECT_OK(t->Append(Tuple{1, 5, 3}));
  XK_EXPECT_OK(t->Cluster({0, 1, 2}));
  for (const auto& [key, ordered] :
       std::vector<std::pair<std::vector<int>, bool>>{{{1, 0, 2}, true},
                                                      {{2, 0}, true},
                                                      {{1}, true},
                                                      {{1, 2}, false},
                                                      {{2, 1, 0}, false}}) {
    XK_EXPECT_OK(t->BuildCompositeIndex(key));
    EXPECT_EQ(t->composite_indexes().back()->lead_runs_in_row_order(), ordered)
        << "key starts with " << key[0] << ", length " << key.size();
  }
  // Column 1 holds 5 twice; (1,2) orders row 1 (c=3) before row 0 (c=9).
  const Tuple five{5};
  const std::span<const RowId> run =
      t->composite_indexes()[3]->LookupPrefix(storage::TupleView(five));
  EXPECT_EQ(std::vector<RowId>(run.begin(), run.end()), (std::vector<RowId>{1, 0}));

  auto unclustered = MakeRelation(SeekDesign::kUnorderedComposite, 3);
  for (const auto& idx : unclustered->composite_indexes()) {
    EXPECT_FALSE(idx->lead_runs_in_row_order());
  }
}

TEST(KeywordSeekTest, IndexesAreUntouchedWhenDisabled) {
  // MinNClustNIndx runs with use_indexes off: even a relation that could
  // seek scans every row.
  auto t = MakeRelation(SeekDesign::kClustered, 11);
  const storage::IdSet one = {t->At(0, 1)};
  for (bool vectorized : {false, true}) {
    ExecOptions opts{.use_indexes = false, .vectorized = vectorized};
    ProbeStats stats;
    EXPECT_EQ(ForEachMatch(*t, {}, {{1, &one}}, opts, [](RowId) { return true; },
                           &stats),
              AccessPathKind::kFullScan);
    EXPECT_EQ(stats.rows_scanned, t->NumRows());
  }
}

TEST(KeywordSeekTest, ScanBlockIteratorSeeksLikeForEachMatch) {
  auto t = MakeRelation(SeekDesign::kClustered, 12);
  const storage::IdSet set = {t->At(0, 2), t->At(1, 2), t->At(2, 2)};
  const std::vector<RowId> expected =
      ProbeTrace(*t, {}, {{2, &set}}, ExecOptions{.use_indexes = false});
  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    ScanBlockIterator blocks(*t, {}, {{2, &set}}, ExecOptions{.block_size = bs});
    EXPECT_EQ(blocks.path(), AccessPathKind::kKeywordSeek);
    std::vector<RowId> got;
    RowBlock block;
    while (blocks.Next(&block)) {
      got.insert(got.end(), block.row_ids.begin(),
                 block.row_ids.begin() + static_cast<long>(block.size));
    }
    EXPECT_EQ(got, expected) << "block_size=" << bs;
  }
}

}  // namespace
}  // namespace xk::exec
