// Differential harness for deadline-aware anytime execution:
//
//  * Inertness — with no deadline and no cost budget, enable_anytime on vs.
//    off must be BYTE-IDENTICAL across every mode x reuse x thread-count
//    combination (the anytime machinery may exist only as a ledger there).
//  * Soundness — under a deterministic cost budget, the result prefix drawn
//    from CN size classes <= Coverage::exhausted_class must byte-match the
//    unbounded run: the budget skips whole networks, never truncates the
//    classes it claims exhausted.
//  * Monotonicity — a larger budget never lowers exhausted_class (the
//    schedule-prefix admission argument in DESIGN.md Section 3g), and a
//    budget covering the whole schedule reports kComplete.
//  * Status — the ledger tells a deadline skip from a cost-budget skip, so
//    only the former reports kDeadlineExceeded.
//  * Serving — degraded answers are counted by Metrics, carry a consistent
//    coverage bound, and are never cached (tsan-labeled: many concurrent
//    clients degrade at once).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "engine/progress_budget.h"
#include "engine/topk_executor.h"
#include "engine/xkeyword.h"
#include "service/query_service.h"
#include "test_util.h"

namespace xk {
namespace {

using engine::Completeness;
using engine::Coverage;
using engine::QueryMode;
using engine::QueryOptions;
using engine::QueryRequest;
using engine::QueryResponse;
using engine::XKeyword;
using present::Mtton;
using std::chrono::milliseconds;

class AnytimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DblpConfig config;
    config.num_conferences = 4;
    config.years_per_conference = 4;
    config.avg_papers_per_year = 10;
    config.avg_citations_per_paper = 6.0;
    config.author_vocab = 60;
    config.title_vocab = 60;
    config.seed = 1704;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe().release();
    xk_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe()
              .release();
    XK_ASSERT_OK(xk_->AddDecomposition(
        decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6).MoveValueUnsafe()));
  }

  static void TearDownTestSuite() {
    delete xk_;
    xk_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static QueryRequest Request(QueryMode mode, const QueryOptions& options) {
    QueryRequest request;
    request.keywords = {"gray", "codd"};
    request.decomposition = "XKeyword";
    request.mode = mode;
    request.options = options;
    return request;
  }

  /// ctssn_index -> CN size class, from a deterministic re-preparation.
  static std::map<int, int> ClassOf(const QueryOptions& options) {
    auto prepared = xk_->Prepare({"gray", "codd"}, "XKeyword", options);
    XK_EXPECT_OK(prepared.status());
    std::map<int, int> class_of;
    for (size_t p = 0; p < prepared->ctssns.size(); ++p) {
      class_of[static_cast<int>(p)] = prepared->ctssns[p].cn_size;
    }
    return class_of;
  }

  /// The results of `mttons` whose network's size class is <= bound, in
  /// response order (the order must survive filtering for the comparison to
  /// be byte-level).
  static std::vector<Mtton> PrefixOfClass(const std::vector<Mtton>& mttons,
                                          const std::map<int, int>& class_of,
                                          int bound) {
    std::vector<Mtton> prefix;
    for (const Mtton& m : mttons) {
      if (class_of.at(m.ctssn_index) <= bound) prefix.push_back(m);
    }
    return prefix;
  }

  static datagen::DblpDatabase* db_;
  static XKeyword* xk_;
};

datagen::DblpDatabase* AnytimeTest::db_ = nullptr;
XKeyword* AnytimeTest::xk_ = nullptr;

// With no deadline and no cost budget the anytime knob must be inert:
// byte-identical responses for every mode/reuse/thread combination, all
// reported complete.
TEST_F(AnytimeTest, UnboundedAnytimeIsByteIdenticalAcrossKnobMatrix) {
  for (QueryMode mode : {QueryMode::kTopK, QueryMode::kNaive, QueryMode::kAll}) {
    for (bool reuse : {false, true}) {
      for (int threads : {1, 4}) {
        QueryOptions options;
        options.max_size_z = 6;
        options.per_network_k = 50;
        options.enable_subplan_reuse = reuse;
        options.enable_scan_reuse = reuse;
        options.num_threads = threads;

        QueryRequest off = Request(mode, options);
        off.options.enable_anytime = false;
        QueryRequest on = Request(mode, options);
        on.options.enable_anytime = true;

        const std::string what =
            (::testing::Message()
             << "mode=" << static_cast<int>(mode) << " reuse=" << reuse
             << " threads=" << threads)
                .GetString();
        XK_ASSERT_OK_AND_ASSIGN(QueryResponse a, xk_->Run(off));
        XK_ASSERT_OK_AND_ASSIGN(QueryResponse b, xk_->Run(on));
        ASSERT_TRUE(a.status.ok()) << what;
        ASSERT_TRUE(b.status.ok()) << what;
        EXPECT_EQ(a.mttons, b.mttons) << what;
        EXPECT_EQ(a.completeness, Completeness::kComplete) << what;
        EXPECT_EQ(b.completeness, Completeness::kComplete) << what;
        EXPECT_TRUE(b.coverage.complete()) << what;
        EXPECT_EQ(b.coverage.cns_skipped, 0u) << what;
      }
    }
  }
}

// Soundness of the exhausted-class bound: for any cost budget, every result
// from a size class the response claims exhausted must byte-match the
// unbounded run's results from those classes.
TEST_F(AnytimeTest, CostBudgetExhaustedClassPrefixMatchesUnboundedRun) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 20;
  const std::map<int, int> class_of = ClassOf(options);

  XK_ASSERT_OK_AND_ASSIGN(QueryResponse unbounded,
                          xk_->Run(Request(QueryMode::kTopK, options)));
  ASSERT_EQ(unbounded.completeness, Completeness::kComplete);

  for (double budget : {1.0, 10.0, 100.0, 1e3, 1e4, 1e6, 1e9}) {
    QueryOptions bounded = options;
    bounded.enable_anytime = true;
    bounded.anytime_cost_budget = budget;
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse response,
                            xk_->Run(Request(QueryMode::kTopK, bounded)));
    ASSERT_TRUE(response.status.ok()) << "budget=" << budget;
    const Coverage& cov = response.coverage;
    EXPECT_FALSE(cov.interrupted) << "budget=" << budget;
    EXPECT_EQ(cov.cns_executed + cov.cns_skipped,
              unbounded.coverage.cns_executed)
        << "budget=" << budget;
    // The guaranteed prefix: classes <= exhausted_class, byte-identical.
    EXPECT_EQ(PrefixOfClass(response.mttons, class_of, cov.exhausted_class),
              PrefixOfClass(unbounded.mttons, class_of, cov.exhausted_class))
        << "budget=" << budget;
    // The completeness label must agree with the coverage arithmetic.
    if (cov.cns_skipped == 0) {
      EXPECT_EQ(response.completeness, Completeness::kComplete);
      EXPECT_EQ(response.mttons, unbounded.mttons);
    } else {
      EXPECT_NE(response.completeness, Completeness::kComplete);
    }
  }
}

// A larger budget never lowers the exhausted-class bound, and a budget
// covering the whole schedule converges to the complete answer. (Note the
// guarantee is on exhausted_class: the count of executed CNs is NOT monotone
// under greedy skip-and-continue admission.)
TEST_F(AnytimeTest, ExhaustedClassMonotoneInCostBudget) {
  QueryOptions options;
  options.max_size_z = 6;
  options.per_network_k = 20;
  int previous_class = -2;
  uint32_t previous_skipped = 0;
  bool first = true;
  for (double budget : {1.0, 5.0, 50.0, 500.0, 5e3, 5e4, 5e6, 1e12}) {
    QueryOptions bounded = options;
    bounded.enable_anytime = true;
    bounded.anytime_cost_budget = budget;
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse response,
                            xk_->Run(Request(QueryMode::kTopK, bounded)));
    EXPECT_GE(response.coverage.exhausted_class, previous_class)
        << "budget=" << budget;
    if (!first) {
      EXPECT_LE(response.coverage.cns_skipped, previous_skipped)
          << "budget=" << budget;
    }
    previous_class = response.coverage.exhausted_class;
    previous_skipped = response.coverage.cns_skipped;
    first = false;
    if (budget >= 1e12) {
      EXPECT_EQ(response.completeness, Completeness::kComplete);
    }
  }
}

// A skip forced by the wall-clock deadline marks the coverage
// deadline_limited (the front-ends then report kDeadlineExceeded); the same
// skips forced by the deterministic cost budget do not (status stays OK).
TEST_F(AnytimeTest, DeadlineSkipsAreDeadlineLimitedCostSkipsAreNot) {
  QueryOptions options;
  options.max_size_z = 6;
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                          xk_->Prepare({"gray", "codd"}, "XKeyword", options));
  ASSERT_GE(q.plans.size(), 2u);
  const std::vector<bool> active(q.plans.size(), true);

  // Wall clock: plan 0 calibrates at ~30 years per plan, so no later plan
  // fits the second that is left.
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::seconds(1));
  QueryOptions timed = options;
  timed.cancel = &token;
  engine::ProgressBudget wall(q, active, timed);
  ASSERT_TRUE(wall.AdmitPlan(0));
  wall.OnPlanComplete(0, /*rows_scanned=*/1, /*elapsed_ns=*/uint64_t{1} << 60);
  for (size_t p = 1; p < q.plans.size(); ++p) EXPECT_FALSE(wall.AdmitPlan(p));
  const Coverage wall_cov = wall.Finish();
  EXPECT_EQ(wall_cov.cns_skipped, q.plans.size() - 1);
  EXPECT_TRUE(wall_cov.deadline_limited);

  // Cost budget: the first plan always runs, nothing else fits.
  QueryOptions costed = options;
  costed.anytime_cost_budget = 1e-9;
  engine::ProgressBudget cost(q, active, costed);
  std::vector<size_t> schedule(q.plans.size());
  for (size_t p = 0; p < schedule.size(); ++p) schedule[p] = p;
  cost.PreAdmit(schedule);
  ASSERT_TRUE(cost.AdmitPlan(0));
  cost.OnPlanComplete(0, 1, 1);
  for (size_t p = 1; p < q.plans.size(); ++p) EXPECT_FALSE(cost.AdmitPlan(p));
  const Coverage cost_cov = cost.Finish();
  EXPECT_EQ(cost_cov.cns_skipped, q.plans.size() - 1);
  EXPECT_FALSE(cost_cov.deadline_limited);
}

// The wall-clock row allowance: unlimited (0) until a completed plan has
// calibrated the ns-per-row estimate; then, with the deadline already gone,
// exactly the anytime_min_plan_rows floor for every further plan.
TEST_F(AnytimeTest, ExpiredDeadlineAllowanceIsTheMinPlanRowsFloor) {
  QueryOptions options;
  options.max_size_z = 6;
  options.anytime_min_plan_rows = 123;
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                          xk_->Prepare({"gray", "codd"}, "XKeyword", options));
  ASSERT_GE(q.plans.size(), 2u);
  const std::vector<bool> active(q.plans.size(), true);

  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  QueryOptions timed = options;
  timed.cancel = &token;
  engine::ProgressBudget budget(q, active, timed);
  ASSERT_TRUE(budget.AdmitPlan(0));
  EXPECT_EQ(budget.RowAllowance(), 0u);
  budget.OnPlanComplete(0, /*rows_scanned=*/1000, /*elapsed_ns=*/50'000);
  EXPECT_EQ(budget.RowAllowance(), 123u);
  EXPECT_EQ(budget.RowAllowance(), 123u);

  // Without a deadline there is never an allowance.
  engine::ProgressBudget unbounded(q, active, options);
  unbounded.OnPlanComplete(0, 1000, 50'000);
  EXPECT_EQ(unbounded.RowAllowance(), 0u);
}

// A PlanEvaluator with a row allowance emits a prefix of its unbounded run's
// emission sequence and stops once its rows scanned reach the allowance; an
// allowance the plan never reaches changes nothing.
TEST_F(AnytimeTest, RowAllowanceStopsOnAPrefixOfTheUnboundedRun) {
  QueryOptions options;
  options.max_size_z = 6;
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                          xk_->Prepare({"gray", "codd"}, "XKeyword", options));

  struct Run {
    std::vector<std::vector<storage::ObjectId>> emitted;
    uint64_t rows_scanned = 0;
    bool spent = false;
  };
  size_t plans_checked = 0;
  for (const opt::CtssnPlan& plan : q.plans) {
    if (plan.query.steps.size() < 2) continue;
    engine::PlanLayout layout(&plan, /*enable_semijoin_pruning=*/false,
                              /*bloom_cache=*/nullptr, /*build_stats=*/nullptr);
    auto run = [&](uint64_t allowance) {
      engine::PlanEvaluator evaluator(&layout, q.exec_options, options.enable_cache,
                                      options.cache_capacity);
      evaluator.set_row_allowance(allowance);
      Run out;
      evaluator.Run([&](const std::vector<storage::ObjectId>& objs) {
        out.emitted.push_back(objs);
        return true;
      });
      out.rows_scanned = evaluator.stats().probes.rows_scanned;
      out.spent = evaluator.row_allowance_spent();
      return out;
    };
    const Run full = run(0);
    EXPECT_FALSE(full.spent);
    if (full.emitted.size() < 2 || full.rows_scanned < 4) continue;
    ++plans_checked;

    const Run cut = run(full.rows_scanned / 2);
    EXPECT_TRUE(cut.spent);
    EXPECT_GE(cut.rows_scanned, full.rows_scanned / 2);
    EXPECT_LT(cut.rows_scanned, full.rows_scanned);
    ASSERT_LE(cut.emitted.size(), full.emitted.size());
    EXPECT_TRUE(std::equal(cut.emitted.begin(), cut.emitted.end(),
                           full.emitted.begin()));

    const Run roomy = run(full.rows_scanned + 1);
    EXPECT_FALSE(roomy.spent);
    EXPECT_EQ(roomy.emitted, full.emitted);
    EXPECT_EQ(roomy.rows_scanned, full.rows_scanned);
  }
  EXPECT_GT(plans_checked, 0u);
}

// Serving layer under concurrent degradation (tsan-labeled): many clients
// with budgets too small for the full schedule; every kDegraded response
// counts in Metrics, and no degraded answer is ever served from the cache.
TEST_F(AnytimeTest, ConcurrentDegradedQueriesCountedAndNeverCached) {
  service::QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.queue_capacity = 64;
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<service::QueryService> service,
                          service::QueryService::Create(xk_, service_options));

  QueryOptions degraded_options;
  degraded_options.max_size_z = 6;
  degraded_options.per_network_k = 20;
  degraded_options.enable_anytime = true;
  degraded_options.anytime_cost_budget = 50.0;  // too small for the schedule

  std::vector<service::QueryHandle> handles;
  for (int i = 0; i < 16; ++i) {
    QueryRequest request = Request(QueryMode::kTopK, degraded_options);
    // Defeat coalescing/caching collapse so every submit truly executes:
    // vary a fingerprinted, result-shaping knob.
    request.options.global_k = 1000 + static_cast<size_t>(i);
    XK_ASSERT_OK_AND_ASSIGN(service::QueryHandle h,
                            service->Submit(request));
    handles.push_back(std::move(h));
  }
  uint64_t degraded_seen = 0;
  for (service::QueryHandle& h : handles) {
    XK_ASSERT_OK_AND_ASSIGN(QueryResponse response, h.Wait());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (response.completeness == Completeness::kDegraded) ++degraded_seen;
    // A degraded bound must be self-consistent.
    if (response.completeness != Completeness::kComplete) {
      EXPECT_GT(response.coverage.cns_skipped + (response.coverage.interrupted ? 1u : 0u), 0u);
    }
  }
  EXPECT_GT(degraded_seen, 0u);
  EXPECT_EQ(service->metrics().Snapshot().degraded, degraded_seen);

  // Re-submitting one of the degraded requests with an unbounded budget must
  // yield the complete answer: had the degraded response been cached, the
  // cache would replay it here (the key ignores anytime knobs by design).
  QueryRequest roomy = Request(QueryMode::kTopK, degraded_options);
  roomy.options.global_k = 1000;
  roomy.options.anytime_cost_budget = 0;
  XK_ASSERT_OK_AND_ASSIGN(service::QueryHandle h, service->Submit(roomy));
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse complete, h.Wait());
  EXPECT_EQ(complete.completeness, Completeness::kComplete);
  XK_ASSERT_OK_AND_ASSIGN(QueryResponse oracle,
                          xk_->Run(roomy));
  EXPECT_EQ(complete.mttons, oracle.mttons);
  service->Shutdown();
}

}  // namespace
}  // namespace xk
