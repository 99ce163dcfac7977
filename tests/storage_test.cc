// Unit tests for the relational storage substrate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "storage/blob_store.h"
#include "storage/catalog.h"
#include "storage/statistics.h"
#include "storage/table.h"
#include "test_util.h"

// Counts every global allocation in this binary so no-allocation guarantees
// can be asserted directly (HashIndexTest.MissingKeyLookupDoesNotAllocate).
// Sanitizer builds interpose the allocator themselves — replacing operator
// new there causes alloc/dealloc mismatches, so the counter stays inert and
// the no-allocation assertions become vacuous under asan/tsan (they are
// enforced by the default preset).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XK_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XK_COUNT_ALLOCATIONS 0
#else
#define XK_COUNT_ALLOCATIONS 1
#endif
#else
#define XK_COUNT_ALLOCATIONS 1
#endif

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

#if XK_COUNT_ALLOCATIONS
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // XK_COUNT_ALLOCATIONS

namespace xk::storage {
namespace {

Table MakeTable() {
  Table t("t", {"a", "b", "c"});
  // (a, b, c): a in [0,4], b = a*10, c = row index.
  for (int64_t i = 0; i < 50; ++i) {
    XK_EXPECT_OK(t.Append(Tuple{i % 5, (i % 5) * 10, i}));
  }
  return t;
}

TEST(TableTest, AppendAndRead) {
  Table t("t", {"x", "y"});
  XK_ASSERT_OK(t.Append(Tuple{1, 2}));
  XK_ASSERT_OK(t.Append(Tuple{3, 4}));
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.At(0, 0), 1);
  EXPECT_EQ(t.At(1, 1), 4);
  TupleView row = t.Row(1);
  EXPECT_EQ(row[0], 3);
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("t", {"x", "y"});
  EXPECT_TRUE(t.Append(Tuple{1}).IsInvalidArgument());
  EXPECT_TRUE(t.Append(Tuple{1, 2, 3}).IsInvalidArgument());
}

TEST(TableTest, ColumnIndexLookup) {
  Table t("t", {"x", "y"});
  XK_ASSERT_OK_AND_ASSIGN(int y, t.ColumnIndex("y"));
  EXPECT_EQ(y, 1);
  EXPECT_TRUE(t.ColumnIndex("z").status().IsNotFound());
}

TEST(TableTest, FreezeBlocksAppends) {
  Table t("t", {"x"});
  XK_ASSERT_OK(t.Append(Tuple{1}));
  t.Freeze();
  EXPECT_TRUE(t.Append(Tuple{2}).IsAborted());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, ClusterSortsRowsAndRangeLookups) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.Cluster({0, 2}));
  // Physically sorted by (a, c).
  for (size_t r = 1; r < t.NumRows(); ++r) {
    auto key = [&](RowId row) {
      return std::make_pair(t.At(row, 0), t.At(row, 2));
    };
    EXPECT_LE(key(static_cast<RowId>(r - 1)), key(static_cast<RowId>(r)));
  }
  auto [begin, end] = t.ClusteredRange(Tuple{3});
  EXPECT_EQ(end - begin, 10u);
  for (RowId r = begin; r < end; ++r) EXPECT_EQ(t.At(r, 0), 3);
  // Empty range for absent key.
  auto [b2, e2] = t.ClusteredRange(Tuple{99});
  EXPECT_EQ(b2, e2);
  // Full-key prefix narrows further.
  auto [b3, e3] = t.ClusteredRange(Tuple{3, 3});
  EXPECT_EQ(e3 - b3, 1u);
}

TEST(TableTest, ClusterAfterIndexRejected) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.BuildHashIndex(0));
  EXPECT_TRUE(t.Cluster({0}).IsAborted());
}

TEST(TableTest, ClusterValidatesColumns) {
  Table t = MakeTable();
  EXPECT_TRUE(t.Cluster({}).IsInvalidArgument());
  EXPECT_TRUE(t.Cluster({7}).IsOutOfRange());
}

TEST(HashIndexTest, LookupFindsAllMatches) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.BuildHashIndex(0));
  const HashIndex* idx = t.GetHashIndex(0);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup(2).size(), 10u);
  for (RowId r : idx->Lookup(2)) EXPECT_EQ(t.At(r, 0), 2);
  EXPECT_TRUE(idx->Lookup(77).empty());
  EXPECT_EQ(idx->distinct_keys(), 5u);
}

TEST(HashIndexTest, BuildIsIdempotent) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.BuildHashIndex(1));
  const HashIndex* first = t.GetHashIndex(1);
  XK_ASSERT_OK(t.BuildHashIndex(1));
  EXPECT_EQ(t.GetHashIndex(1), first);
}

TEST(CompositeIndexTest, PrefixLookups) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.BuildCompositeIndex({0, 2}));
  const CompositeIndex* idx = t.GetCompositeIndex({0});
  ASSERT_NE(idx, nullptr);
  auto run = idx->LookupPrefix(Tuple{4});
  EXPECT_EQ(run.size(), 10u);
  for (RowId r : run) EXPECT_EQ(t.At(r, 0), 4);
  auto exact = idx->LookupPrefix(Tuple{4, 9});
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(t.At(exact[0], 2), 9);
  EXPECT_TRUE(idx->LookupPrefix(Tuple{42}).empty());
}

TEST(CompositeIndexTest, GetRequiresKeyPrefixMatch) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.BuildCompositeIndex({1, 0}));
  EXPECT_NE(t.GetCompositeIndex({1}), nullptr);
  EXPECT_NE(t.GetCompositeIndex({1, 0}), nullptr);
  EXPECT_EQ(t.GetCompositeIndex({0}), nullptr);  // not a prefix
}

TEST(TableTest, DistinctCount) {
  Table t = MakeTable();
  EXPECT_EQ(t.DistinctCount(0), 5u);
  EXPECT_EQ(t.DistinctCount(2), 50u);
  t.Freeze();
  EXPECT_EQ(t.DistinctCount(0), 5u);  // cached path
  EXPECT_EQ(t.DistinctCount(0), 5u);
}

TEST(TableTest, DistinctCountConcurrentReadsAreSafe) {
  // Regression: the lazy distinct cache used to be filled with no
  // synchronization, so concurrent readers of a frozen table raced on the
  // optional slots (flagged by TSan). Every reader must see the same counts.
  Table t = MakeTable();
  const size_t want_a = t.DistinctCount(0);
  const size_t want_b = t.DistinctCount(1);
  const size_t want_c = t.DistinctCount(2);
  t.Freeze();
  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 50; ++iter) {
        if (t.DistinctCount(0) != want_a) errors.fetch_add(1);
        if (t.DistinctCount(1) != want_b) errors.fetch_add(1);
        if (t.DistinctCount(2) != want_c) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(HashIndexTest, MissingKeyLookupDoesNotAllocate) {
  Table t = MakeTable();
  XK_ASSERT_OK(t.BuildHashIndex(0));
  const HashIndex* idx = t.GetHashIndex(0);
  ASSERT_NE(idx, nullptr);
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  std::span<const RowId> hit = idx->Lookup(2);
  std::span<const RowId> miss = idx->Lookup(77);
  const size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "Lookup must not touch the heap";
  EXPECT_EQ(hit.size(), 10u);
  EXPECT_TRUE(miss.empty());
}

TEST(TableTest, MemoryBytesGrowsWithIndexes) {
  Table t = MakeTable();
  size_t base = t.MemoryBytes();
  XK_ASSERT_OK(t.BuildHashIndex(0));
  EXPECT_GT(t.MemoryBytes(), base);
}

TEST(BlobStoreTest, PutGetAndDuplicate) {
  BlobStore store;
  XK_ASSERT_OK(store.Put(7, "<person/>"));
  EXPECT_TRUE(store.Put(7, "x").IsAlreadyExists());
  XK_ASSERT_OK_AND_ASSIGN(std::string blob, store.Get(7));
  EXPECT_EQ(blob, "<person/>");
  EXPECT_TRUE(store.Get(8).status().IsNotFound());
  EXPECT_TRUE(store.Contains(7));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.MemoryBytes(), 9u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  XK_ASSERT_OK_AND_ASSIGN(Table * t, catalog.CreateTable("r", {"a"}));
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(catalog.CreateTable("r", {"a"}).status().IsAlreadyExists());
  XK_ASSERT_OK_AND_ASSIGN(Table * same, catalog.GetTable("r"));
  EXPECT_EQ(t, same);
  EXPECT_TRUE(catalog.HasTable("r"));
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"r"});
  XK_ASSERT_OK(catalog.DropTable("r"));
  EXPECT_TRUE(catalog.GetTable("r").status().IsNotFound());
  EXPECT_TRUE(catalog.DropTable("r").IsNotFound());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  XK_ASSERT_OK(catalog.CreateTable("zeta", {"a"}).status());
  XK_ASSERT_OK(catalog.CreateTable("alpha", {"a"}).status());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(StatisticsTest, CountsAndFanouts) {
  Statistics stats;
  EXPECT_EQ(stats.NodeCount(3), 0u);
  stats.SetNodeCount(3, 120);
  EXPECT_EQ(stats.NodeCount(3), 120u);
  EXPECT_DOUBLE_EQ(stats.AvgFanout(5), 1.0);
  stats.SetAvgFanout(5, 2.5);
  EXPECT_DOUBLE_EQ(stats.AvgFanout(5), 2.5);
  stats.SetAvgReverseFanout(5, 0.4);
  EXPECT_DOUBLE_EQ(stats.AvgReverseFanout(5), 0.4);
}

TEST(StatisticsTest, EstimateProbeRows) {
  Table t = MakeTable();
  // 50 rows, 5 distinct in col 0 -> ~10 rows per probe.
  EXPECT_DOUBLE_EQ(Statistics::EstimateProbeRows(t, 0), 10.0);
  Table empty("e", {"x"});
  EXPECT_DOUBLE_EQ(Statistics::EstimateProbeRows(empty, 0), 0.0);
}

}  // namespace
}  // namespace xk::storage
