// Tests for access paths and the nested-loop join executor, including property
// sweeps asserting that every physical design and block size returns the rows
// a brute-force scan of the table finds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
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

/// Brute-force join reference: every (left, right) row pair in row order,
/// kept when right.src == left.dst and the left filter (if any) holds.
std::multiset<std::vector<ObjectId>> OracleJoin(const JoinFixture& f,
                                                const storage::IdSet* left_filter) {
  std::multiset<std::vector<ObjectId>> out;
  for (RowId l = 0; l < f.left->NumRows(); ++l) {
    if (left_filter != nullptr && !left_filter->contains(f.left->At(l, 0))) continue;
    for (RowId r = 0; r < f.right->NumRows(); ++r) {
      if (f.right->At(r, 0) != f.left->At(l, 1)) continue;
      out.insert({f.left->At(l, 0), f.left->At(l, 1), f.right->At(r, 0),
                  f.right->At(r, 1)});
    }
  }
  return out;
}

TEST(JoinExecutorsTest, NestedLoopMatchesBruteForceJoin) {
  JoinFixture f;
  const storage::IdSet filter = {0, 1, 2};
  for (const storage::IdSet* left_filter :
       std::vector<const storage::IdSet*>{nullptr, &filter}) {
    JoinQuery q = f.MakeQuery(left_filter);
    std::multiset<std::vector<ObjectId>> got;
    NestedLoopExecutor nl(&q, ExecOptions{});
    XK_ASSERT_OK(nl.Run([&](const std::vector<storage::TupleView>& rows) {
      std::vector<ObjectId> flat;
      for (auto view : rows) flat.insert(flat.end(), view.begin(), view.end());
      got.insert(std::move(flat));
      return true;
    }));
    const auto expected = OracleJoin(f, left_filter);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(got, expected) << "filtered=" << (left_filter != nullptr);
  }
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

// --- The probe against a brute-force oracle --------------------------------

/// Ordered row-id trace of one probe, with the path chosen by `opts`.
std::vector<RowId> ProbeTrace(const Table& t,
                              const std::vector<ColumnBinding>& bindings,
                              const std::vector<ColumnInSet>& in_filters,
                              ExecOptions opts, ProbeStats* stats = nullptr,
                              AccessPathKind* kind = nullptr) {
  std::vector<RowId> out;
  const AccessPathKind k = ForEachMatch(t, bindings, in_filters, opts,
                                        [&](RowId r) {
                                          out.push_back(r);
                                          return true;
                                        },
                                        stats);
  if (kind != nullptr) *kind = k;
  return out;
}

/// Brute-force reference for one probe: every row in row order, kept when
/// each binding and in-set filter holds, read through Table::At. It shares
/// nothing with the probe under test (no ChoosePath, CandidateCursor or
/// RowPasses).
std::vector<RowId> OracleMatches(const Table& t,
                                 const std::vector<ColumnBinding>& bindings,
                                 const std::vector<ColumnInSet>& in_filters) {
  std::vector<RowId> out;
  for (RowId r = 0; r < t.NumRows(); ++r) {
    bool keep = true;
    for (const ColumnBinding& b : bindings) keep = keep && t.At(r, b.column) == b.value;
    for (const ColumnInSet& f : in_filters) {
      keep = keep && f.set->contains(t.At(r, f.column));
    }
    if (keep) out.push_back(r);
  }
  return out;
}

/// Paths whose candidates arrive in row order; the others (composite and
/// hash index runs) only promise the same rows.
bool RowOrdered(AccessPathKind kind) {
  return kind == AccessPathKind::kFullScan || kind == AccessPathKind::kKeywordSeek ||
         kind == AccessPathKind::kClusteredRange;
}

/// The probe must return the oracle's rows on every physical design, binding
/// shape and block size — including blocks of one row, block sizes that never
/// divide the table, empty results and filters that kill entire blocks — and
/// the block size must not move its row sequence or its counters.
class ProbeOracleDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ProbeOracleDifferential, MatchesBruteForceAtEveryBlockSize) {
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
      const std::vector<RowId> oracle = OracleMatches(*t, c.bindings, c.filters);
      std::vector<RowId> sorted_oracle = oracle;
      std::sort(sorted_oracle.begin(), sorted_oracle.end());
      std::vector<RowId> first_trace;
      ProbeStats first_stats;
      for (size_t bs : {size_t{1}, size_t{7}, size_t{15}, size_t{16},
                        size_t{17}, size_t{1024}}) {
        const std::string where = "physical=" + std::to_string(static_cast<int>(physical)) +
                                  " case=" + std::to_string(ci) +
                                  " block_size=" + std::to_string(bs);
        ProbeStats stats;
        AccessPathKind kind;
        const std::vector<RowId> trace = ProbeTrace(
            *t, c.bindings, c.filters, ExecOptions{.block_size = bs}, &stats, &kind);
        if (RowOrdered(kind)) {
          EXPECT_EQ(trace, oracle) << where;
        } else {
          std::vector<RowId> sorted = trace;
          std::sort(sorted.begin(), sorted.end());
          EXPECT_EQ(sorted, sorted_oracle) << where;
        }
        EXPECT_EQ(stats.rows_matched, oracle.size()) << where;
        EXPECT_EQ(stats.probes, 1u) << where;
        if (bs == 1) {
          first_trace = trace;
          first_stats = stats;
          continue;
        }
        // Without an early stop the block size moves nothing.
        EXPECT_EQ(trace, first_trace) << where;
        EXPECT_EQ(stats.rows_scanned, first_stats.rows_scanned) << where;
        EXPECT_EQ(stats.rows_matched, first_stats.rows_matched) << where;
        EXPECT_EQ(stats.probes, first_stats.probes) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeOracleDifferential, ::testing::Range(1, 6));

TEST(BlockProbeTest, EarlyStopAndBloomPrune) {
  auto t = MakeEdgeTable(Physical::kHash, 6, /*rows=*/200, /*domain=*/30);
  // Early stop: a full scan in blocks of 7 hands out the oracle's first 5
  // rows, then stops.
  std::vector<RowId> expected = OracleMatches(*t, {}, {});
  ASSERT_GE(expected.size(), 5u);
  expected.resize(5);
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

TEST(JoinHashTableTest, DuplicateHeavyKeysMatchMapOracle) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Random rng(seed);
    for (int key_width : {1, 2}) {
      const size_t width = static_cast<size_t>(key_width);
      // 333 rows over ids 0..40: long duplicate chains, and with no Reserve
      // the table rehashes mid-build (width 2 ends with > 64 keys).
      const uint32_t rows = 333;
      std::vector<ObjectId> keys(rows * width);
      for (auto& v : keys) v = rng.Uniform(0, 40);
      JoinHashTable table(key_width);
      std::map<Tuple, std::vector<uint32_t>> oracle;
      for (uint32_t r = 0; r < rows; ++r) {
        const ObjectId* key = keys.data() + r * width;
        table.Insert(key, r);
        oracle[Tuple(key, key + width)].push_back(r);
      }
      ASSERT_EQ(table.num_keys(), oracle.size());
      ASSERT_EQ(table.num_rows(), rows);
      if (key_width == 2) EXPECT_GT(table.num_keys(), 64u);

      // Every build key walks its chain in insertion order; keys outside the
      // id range miss.
      std::vector<Tuple> probes;
      for (const auto& entry : oracle) probes.push_back(entry.first);
      for (ObjectId i = 0; i < 64; ++i) probes.push_back(Tuple(width, 1000 + i));
      for (const Tuple& key : probes) {
        std::vector<uint32_t> got;
        for (uint32_t node = table.Lookup(key.data());
             node != JoinHashTable::kNil; node = table.NextMatch(node)) {
          got.push_back(table.MatchRow(node));
        }
        const auto it = oracle.find(key);
        EXPECT_EQ(got, it == oracle.end() ? std::vector<uint32_t>{}
                                          : it->second)
            << "seed=" << seed << " key_width=" << key_width
            << " key[0]=" << key[0];
      }
    }
  }
}

TEST(JoinHashTableTest, JoinKeyHashGoldenValues) {
  // storage::HashIds (FNV-1a 64) then the SplitMix64 finalizer. Pinned so a
  // change to either half shows up here, not as a silent slot-layout shift.
  const struct {
    Tuple key;
    uint64_t hash;
  } kGolden[] = {
      {{0}, 0x15e42bf327bbda0fULL},
      {{1}, 0x880c3741df350cabULL},
      {{42}, 0x328464197ac2c187ULL},
      {{-1}, 0x5c658124a7441a84ULL},
      {{7, 11}, 0xd67cc2c0d8900e88ULL},
      {{1, 2, 3}, 0x838b6f8f6d43757bULL},
      {{123456789, -5, 0}, 0x663c6284385077eaULL},
  };
  for (const auto& g : kGolden) {
    EXPECT_EQ(JoinKeyHash(g.key), g.hash) << "key[0]=" << g.key[0];
    uint64_t h = storage::HashIds(g.key);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    EXPECT_EQ(h ^ (h >> 31), g.hash) << "key[0]=" << g.key[0];
  }
}

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

TEST(JoinHashTableTest, SharedHomeSlotsResolveByFullHash) {
  // Colliding keys built by inverting the (bijective) hash, in a 32-slot
  // table (Reserve(20)):
  //   h_far   -> home 0x10 — occupies the probe walk's first slot
  //   h_near  -> home 0x11, equal to h_probe in every bit but bit 0
  //   h_probe -> home 0x10, walks past h_far and h_near to its own slot
  // Each key must reach its own chain, and an absent key must miss.
  const uint64_t h_probe = (0xDEADBEEFULL << 32) | 0x10;
  const uint64_t h_near = h_probe ^ 1;
  const uint64_t h_far = (0x0BADF00DULL << 32) | 0x10;
  const ObjectId k_probe = hashinv::KeyForHash(h_probe);
  const ObjectId k_near = hashinv::KeyForHash(h_near);
  const ObjectId k_far = hashinv::KeyForHash(h_far);
  ASSERT_EQ(JoinKeyHash(Tuple{k_probe}), h_probe);
  ASSERT_EQ(JoinKeyHash(Tuple{k_near}), h_near);
  ASSERT_EQ(JoinKeyHash(Tuple{k_far}), h_far);

  for (bool insert_probe_key : {false, true}) {
    JoinHashTable table(1);
    table.Reserve(20);
    table.Insert(&k_far, 0);
    table.Insert(&k_near, 1);
    table.Insert(&k_near, 2);  // chained duplicate
    if (insert_probe_key) table.Insert(&k_probe, 3);

    auto chain = [&](ObjectId key) {
      std::vector<uint32_t> rows;
      for (uint32_t node = table.Lookup(&key); node != JoinHashTable::kNil;
           node = table.NextMatch(node)) {
        rows.push_back(table.MatchRow(node));
      }
      return rows;
    };
    EXPECT_EQ(chain(k_far), std::vector<uint32_t>{0});
    EXPECT_EQ(chain(k_near), (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(chain(k_probe), insert_probe_key ? std::vector<uint32_t>{3}
                                               : std::vector<uint32_t>{})
        << "insert_probe_key=" << insert_probe_key;
  }
}

TEST(SelectionKernelTest, InSetLadderCoversSetSizesOneThroughFive) {
  // Sizes 1-4 take the unrolled compare ladder, size 5 the hash-set probe;
  // all must agree with a by-hand filter.
  auto t = MakeEdgeTable(Physical::kNone, 13, /*rows=*/100, /*domain=*/8);
  for (size_t set_size = 1; set_size <= 5; ++set_size) {
    storage::IdSet set;
    for (ObjectId v = 0; v < static_cast<ObjectId>(set_size); ++v) {
      set.insert(v * 2);  // {0}, {0,2}, ... {0,2,4,6,8}
    }
    RowBlock block;
    block.Reset(t->arity(), 128);
    for (size_t i = 0; i < 100; ++i) block.row_ids[i] = static_cast<RowId>(i);
    block.SelectAll(100);
    const size_t n = SelInSet(*t, &block, 1, set);
    std::vector<RowId> got(block.sel.begin(), block.sel.begin() + n);
    std::vector<RowId> want;
    for (RowId r = 0; r < 100; ++r) {
      if (set.contains(t->At(r, 1))) want.push_back(r);
    }
    EXPECT_EQ(got, want) << "set_size=" << set_size;
  }
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
      for (size_t block_size : {size_t{0}, size_t{7}}) {
        ExecOptions seek_opts;
        seek_opts.block_size = block_size;
        ExecOptions scan_opts = seek_opts;
        scan_opts.use_indexes = false;
        for (size_t limit : {size_t{1}, size_t{5}, SIZE_MAX}) {
          const std::string where =
              std::string(c.name) + " design=" +
              std::to_string(static_cast<int>(design)) +
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
          // The block regime counts whole blocks, whose make-up differs
          // between seek and scan, so the counts agree once the probe runs
          // to the end.
          if (limit == SIZE_MAX) {
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
  ProbeStats stats;
  EXPECT_EQ(ForEachMatch(*t, {}, {{1, &one}}, ExecOptions{.use_indexes = false},
                         [](RowId) { return true; }, &stats),
            AccessPathKind::kFullScan);
  EXPECT_EQ(stats.rows_scanned, t->NumRows());
}

TEST(KeywordSeekTest, SeeksInRowOrderAtEveryBlockSize) {
  auto t = MakeRelation(SeekDesign::kClustered, 12);
  const storage::IdSet set = {t->At(0, 2), t->At(1, 2), t->At(2, 2)};
  const std::vector<RowId> expected = OracleMatches(*t, {}, {{2, &set}});
  ASSERT_FALSE(expected.empty());
  for (size_t bs : {size_t{1}, size_t{7}, size_t{1024}}) {
    AccessPathKind kind;
    EXPECT_EQ(ProbeTrace(*t, {}, {{2, &set}}, ExecOptions{.block_size = bs},
                         nullptr, &kind),
              expected)
        << "block_size=" << bs;
    EXPECT_EQ(kind, AccessPathKind::kKeywordSeek) << "block_size=" << bs;
  }
}

}  // namespace
}  // namespace xk::exec
