// Tests for the plan-DAG machinery: shared-subplan detection and cost-ordered
// scheduling (opt::BuildPlanDag), the thread-safe leader/follower subplan
// cache with its byte budget (opt::SubplanCache), the materialized-subplan
// replay buffer (exec::MaterializedSubplan), and the MaterializedViewCache
// under concurrency. Runs under the `tsan` preset.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cn/ctssn.h"
#include "exec/subplan_source.h"
#include "opt/plan_dag.h"
#include "opt/reuse.h"
#include "opt/subplan_cache.h"

namespace xk::opt {
namespace {

// --- MaterializedSubplan -------------------------------------------------

TEST(MaterializedSubplanTest, AppendAtReplayRoundtrip) {
  // Small block capacity so multiple blocks are exercised.
  exec::MaterializedSubplan sub(3, 4);
  constexpr size_t kRows = 11;
  for (size_t r = 0; r < kRows; ++r) {
    storage::RowId row[3] = {static_cast<storage::RowId>(r),
                             static_cast<storage::RowId>(100 + r),
                             static_cast<storage::RowId>(200 + r)};
    sub.Append(row);
  }
  ASSERT_EQ(sub.num_rows(), kRows);
  ASSERT_EQ(sub.arity(), 3);
  EXPECT_GT(sub.bytes(), 0u);
  for (size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(sub.At(r, 0), r);
    EXPECT_EQ(sub.At(r, 1), 100 + r);
    EXPECT_EQ(sub.At(r, 2), 200 + r);
  }
}

// --- SubplanCache --------------------------------------------------------

SubplanCache::SubplanPtr MakeSubplan(size_t rows) {
  auto sub = std::make_shared<exec::MaterializedSubplan>(1, 16);
  for (size_t r = 0; r < rows; ++r) {
    storage::RowId id = static_cast<storage::RowId>(r);
    sub->Append(&id);
  }
  return sub;
}

TEST(SubplanCacheTest, LeaderProducesOnceFollowersHit) {
  SubplanCache cache(1 << 20);
  std::atomic<int> productions{0};
  auto produce = [&]() -> SubplanCache::SubplanPtr {
    ++productions;
    return MakeSubplan(5);
  };
  SubplanCache::SubplanPtr a = cache.GetOrCompute("sig", 3, produce);
  SubplanCache::SubplanPtr b = cache.GetOrCompute("sig", 3, produce);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(productions.load(), 1);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.dedup_saved_rows, 5u);
}

TEST(SubplanCacheTest, ConcurrentRequestersOneProduction) {
  SubplanCache cache(1 << 20);
  std::atomic<int> productions{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<SubplanCache::SubplanPtr> got(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<size_t>(t)] =
          cache.GetOrCompute("shared", kThreads, [&]() -> SubplanCache::SubplanPtr {
            ++productions;
            return MakeSubplan(7);
          });
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(productions.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)].get(), got[0].get());
  }
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(SubplanCacheTest, FailedProductionReturnsNullForEveryone) {
  SubplanCache cache(1 << 20);
  auto fail = []() -> SubplanCache::SubplanPtr { return nullptr; };
  EXPECT_EQ(cache.GetOrCompute("bad", 2, fail), nullptr);
  // The failure is remembered; no re-production, still null, not a hit.
  std::atomic<int> productions{0};
  EXPECT_EQ(cache.GetOrCompute("bad", 2,
                               [&]() -> SubplanCache::SubplanPtr {
                                 ++productions;
                                 return MakeSubplan(1);
                               }),
            nullptr);
  EXPECT_EQ(productions.load(), 0);
  EXPECT_EQ(cache.stats().failed, 1u);
}

TEST(SubplanCacheTest, EvictsReleasedEntriesOverBudget) {
  SubplanCache::SubplanPtr probe = MakeSubplan(16);
  const size_t one_entry = probe->bytes();
  // Budget fits one entry but not two.
  SubplanCache cache(one_entry + one_entry / 2);
  auto a = cache.GetOrCompute("a", 1, [] { return MakeSubplan(16); });
  ASSERT_NE(a, nullptr);
  cache.Release("a");  // fully released -> evictable
  auto b = cache.GetOrCompute("b", 1, [] { return MakeSubplan(16); });
  ASSERT_NE(b, nullptr);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  // "a" was evicted: requesting it again re-produces.
  EXPECT_EQ(cache.Peek("a"), nullptr);
}

TEST(SubplanCacheTest, InUseEntriesSurviveBudgetPressure) {
  SubplanCache::SubplanPtr probe = MakeSubplan(16);
  SubplanCache cache(probe->bytes());  // fits one entry only
  auto a = cache.GetOrCompute("a", 2, [] { return MakeSubplan(16); });
  cache.Release("a");  // one of two consumers done: still in use
  auto b = cache.GetOrCompute("b", 1, [] { return MakeSubplan(16); });
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // "a" must not have been evicted while a consumer is outstanding.
  EXPECT_NE(cache.Peek("a"), nullptr);
}

// --- BuildPlanDag --------------------------------------------------------

/// Fabricates a plan carrying only what BuildPlanDag reads: network size,
/// estimated output rows, and prefix signatures.
CtssnPlan FakePlan(const cn::Ctssn* ctssn, double estimated_rows,
                   std::vector<std::string> prefix_signatures) {
  CtssnPlan plan;
  plan.ctssn = ctssn;
  plan.estimated_rows = estimated_rows;
  plan.prefix_signatures = std::move(prefix_signatures);
  return plan;
}

TEST(BuildPlanDagTest, CostOrderedScheduleSortsInsideSizeClass) {
  cn::Ctssn small, big;
  small.cn_size = 2;
  big.cn_size = 5;
  std::vector<CtssnPlan> plans;
  plans.push_back(FakePlan(&big, 10.0, {"[x]"}));
  plans.push_back(FakePlan(&small, 99.0, {"[y]"}));
  plans.push_back(FakePlan(&big, 1.0, {"[z]"}));
  std::vector<bool> active(plans.size(), true);

  PlanDagOptions cost_ordered;
  PlanDag dag = BuildPlanDag(plans, active, cost_ordered);
  // Size class first (small before big), then cheapest-first inside a class.
  EXPECT_EQ(dag.schedule, (std::vector<size_t>{1, 2, 0}));

  PlanDagOptions legacy;
  legacy.cost_ordered = false;
  PlanDag legacy_dag = BuildPlanDag(plans, active, legacy);
  // Legacy order: size class, then plan index.
  EXPECT_EQ(legacy_dag.schedule, (std::vector<size_t>{1, 0, 2}));
}

TEST(BuildPlanDagTest, AssignsDeepestSharedPrefix) {
  cn::Ctssn c;
  c.cn_size = 3;
  std::vector<CtssnPlan> plans;
  // Plans 0 and 1 share prefixes at depth 0 and 1; plan 2 shares only depth 0.
  plans.push_back(FakePlan(&c, 1.0, {"[A]", "[A][B]", "[A][B][C]"}));
  plans.push_back(FakePlan(&c, 2.0, {"[A]", "[A][B]", "[A][B][D]"}));
  plans.push_back(FakePlan(&c, 3.0, {"[A]", "[A][E]"}));
  std::vector<bool> active(plans.size(), true);

  PlanDag dag = BuildPlanDag(plans, active, PlanDagOptions{});
  ASSERT_EQ(dag.shared_subplan.size(), 3u);
  ASSERT_GE(dag.shared_subplan[0], 0);
  EXPECT_EQ(dag.shared_subplan[0], dag.shared_subplan[1]);
  const SharedSubplan& deep =
      dag.subplans[static_cast<size_t>(dag.shared_subplan[0])];
  EXPECT_EQ(deep.signature, "[A][B]");
  EXPECT_EQ(deep.depth, 1);
  EXPECT_EQ(deep.consumers, 2);
  // Plan 2's deepest shared prefix is "[A]" (carried by all three).
  ASSERT_GE(dag.shared_subplan[2], 0);
  const SharedSubplan& shallow =
      dag.subplans[static_cast<size_t>(dag.shared_subplan[2])];
  EXPECT_EQ(shallow.signature, "[A]");
  EXPECT_EQ(shallow.depth, 0);
}

TEST(BuildPlanDagTest, InactivePlansDoNotCountAsCarriers) {
  cn::Ctssn c;
  c.cn_size = 3;
  std::vector<CtssnPlan> plans;
  plans.push_back(FakePlan(&c, 1.0, {"[A]"}));
  plans.push_back(FakePlan(&c, 2.0, {"[A]"}));
  std::vector<bool> active = {true, false};

  PlanDag dag = BuildPlanDag(plans, active, PlanDagOptions{});
  // Only one active carrier: nothing is shared.
  EXPECT_TRUE(dag.subplans.empty());
  EXPECT_EQ(dag.shared_subplan[0], -1);
}

TEST(BuildPlanDagTest, SharingDisabledYieldsNoSubplans) {
  cn::Ctssn c;
  c.cn_size = 3;
  std::vector<CtssnPlan> plans;
  plans.push_back(FakePlan(&c, 1.0, {"[A]"}));
  plans.push_back(FakePlan(&c, 2.0, {"[A]"}));
  std::vector<bool> active(plans.size(), true);
  PlanDagOptions options;
  options.share_subplans = false;
  PlanDag dag = BuildPlanDag(plans, active, options);
  EXPECT_TRUE(dag.subplans.empty());
}

// --- MaterializedViewCache under concurrency -----------------------------

TEST(MaterializedViewCacheTest, ConcurrentGetPutIsRaceFree) {
  MaterializedViewCache cache;
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string sig = "scan" + std::to_string(i % 5);
        if (cache.Get(sig) == nullptr) {
          std::vector<storage::Tuple> rows;
          rows.push_back(storage::Tuple{static_cast<storage::ObjectId>(t)});
          cache.Put(sig, std::move(rows));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.size(), 5u);
  // Every signature resolves to exactly one stable materialization.
  const std::vector<storage::Tuple>* first = cache.Get("scan0");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, cache.Get("scan0"));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads * kOps) + 2);
}

}  // namespace
}  // namespace xk::opt
