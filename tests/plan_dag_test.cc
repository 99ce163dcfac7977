// Tests for the plan schedule (opt::PlanSchedule): the order in which the
// top-k executor runs a query's candidate-network plans. The schedule is
// what remains of the plan DAG; it is a pure function of plan metadata
// (network size class, then estimated output rows, then plan index).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cn/ctssn.h"
#include "opt/optimizer.h"

namespace xk::opt {
namespace {

/// Fabricates a plan carrying only what PlanSchedule reads: network size and
/// estimated output rows.
CtssnPlan FakePlan(const cn::Ctssn* ctssn, double estimated_rows) {
  CtssnPlan plan;
  plan.ctssn = ctssn;
  plan.estimated_rows = estimated_rows;
  return plan;
}

TEST(PlanScheduleTest, CostOrderedScheduleSortsInsideSizeClass) {
  cn::Ctssn small, big;
  small.cn_size = 2;
  big.cn_size = 5;
  std::vector<CtssnPlan> plans;
  plans.push_back(FakePlan(&big, 10.0));
  plans.push_back(FakePlan(&small, 99.0));
  plans.push_back(FakePlan(&big, 1.0));
  plans.push_back(FakePlan(&big, 1.0));
  // Size class first (small before big), then cheapest-first inside a class,
  // then plan index among equal estimates.
  EXPECT_EQ(PlanSchedule(plans), (std::vector<size_t>{1, 2, 3, 0}));
}

TEST(PlanScheduleTest, EmptyQueryHasEmptySchedule) {
  EXPECT_TRUE(PlanSchedule({}).empty());
}

TEST(PlanScheduleTest, RandomPlansGetASortedPermutation) {
  std::mt19937 rng(7);
  std::vector<cn::Ctssn> networks(4);
  for (size_t i = 0; i < networks.size(); ++i) {
    networks[i].cn_size = static_cast<int>(i) + 1;
  }
  for (int round = 0; round < 20; ++round) {
    std::vector<CtssnPlan> plans;
    const size_t n = 1 + rng() % 40;
    for (size_t p = 0; p < n; ++p) {
      // Few distinct estimates, so ties inside a size class are common.
      plans.push_back(FakePlan(&networks[rng() % networks.size()],
                               static_cast<double>(rng() % 4)));
    }
    const std::vector<size_t> order = PlanSchedule(plans);
    std::vector<size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t p = 0; p < n; ++p) ASSERT_EQ(sorted[p], p) << "not a permutation";
    for (size_t i = 1; i < order.size(); ++i) {
      const CtssnPlan& a = plans[order[i - 1]];
      const CtssnPlan& b = plans[order[i]];
      ASSERT_LE(a.ctssn->cn_size, b.ctssn->cn_size);
      if (a.ctssn->cn_size != b.ctssn->cn_size) continue;
      ASSERT_LE(a.estimated_rows, b.estimated_rows);
      if (a.estimated_rows == b.estimated_rows) {
        ASSERT_LT(order[i - 1], order[i]);
      }
    }
  }
}

}  // namespace
}  // namespace xk::opt
