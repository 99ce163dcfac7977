// Differential harness for anytime execution:
//
//  * Inertness — a cost budget that affords the whole schedule must be
//    BYTE-IDENTICAL to an unbounded run across every mode x thread-count
//    combination (budgeting skips whole networks or nothing).
//  * Soundness — under a deterministic cost budget, the result prefix drawn
//    from CN size classes <= Coverage::exhausted_class must byte-match the
//    unbounded run: the budget skips whole networks, never truncates the
//    classes it claims exhausted.
//  * Monotonicity — a larger budget never lowers exhausted_class (the
//    schedule-prefix admission argument in DESIGN.md Section 3g), and a
//    budget covering the whole schedule reports kComplete.
//  * Status — cost-budget skips keep the status OK.
//  * Truncation — a cancel mid-query leaves the same sound prefix: a stop
//    truncates the size-ordered schedule and never enters admission.
//  * Serving — degraded answers are counted by Metrics, carry a consistent
//    coverage bound, and are never cached (tsan-labeled: many concurrent
//    clients degrade at once).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datagen/dblp_gen.h"
#include "engine/progress_budget.h"
#include "engine/result_sink.h"
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

// A cost budget that affords the whole schedule must leave the answer
// byte-identical to an unbounded run for every mode/thread combination, all
// reported complete: budgeting skips whole networks or nothing.
TEST_F(AnytimeTest, UnboundedAnytimeIsByteIdenticalAcrossKnobMatrix) {
  for (QueryMode mode : {QueryMode::kTopK, QueryMode::kNaive, QueryMode::kAll}) {
    for (int threads : {1, 4}) {
      QueryOptions options;
      options.max_size_z = 6;
      options.per_network_k = 50;
      options.num_threads = threads;

      QueryRequest unbounded = Request(mode, options);
      QueryRequest roomy = Request(mode, options);
      roomy.options.anytime_cost_budget = 1e18;

      const std::string what =
          (::testing::Message()
           << "mode=" << static_cast<int>(mode) << " threads=" << threads)
              .GetString();
      XK_ASSERT_OK_AND_ASSIGN(QueryResponse a, xk_->Run(unbounded));
      XK_ASSERT_OK_AND_ASSIGN(QueryResponse b, xk_->Run(roomy));
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

// Skips forced by the deterministic cost budget are skips, never
// interruptions, so the status stays OK (end to end in
// CostBudgetExhaustedClassPrefixMatchesUnboundedRun). A ledger-only budget
// (the full-result executor's) admits every plan.
TEST_F(AnytimeTest, CostBudgetSkipsStayOk) {
  QueryOptions options;
  options.max_size_z = 6;
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                          xk_->Prepare({"gray", "codd"}, "XKeyword", options));
  ASSERT_GE(q.plans.size(), 2u);
  const std::vector<bool> active(q.plans.size(), true);
  std::vector<size_t> schedule(q.plans.size());
  for (size_t p = 0; p < schedule.size(); ++p) schedule[p] = p;

  // Cost budget: the first plan always runs, nothing else fits.
  engine::ProgressBudget cost(q, active, /*cost_budget=*/1e-9);
  cost.PreAdmit(schedule);
  ASSERT_TRUE(cost.AdmitPlan(0));
  cost.OnPlanComplete(0);
  for (size_t p = 1; p < q.plans.size(); ++p) EXPECT_FALSE(cost.AdmitPlan(p));
  const Coverage cost_cov = cost.Finish();
  EXPECT_EQ(cost_cov.cns_skipped, q.plans.size() - 1);
  EXPECT_FALSE(cost_cov.interrupted);

  engine::ProgressBudget ledger(q, active);
  ledger.PreAdmit(schedule);
  for (size_t p = 0; p < q.plans.size(); ++p) {
    EXPECT_TRUE(ledger.AdmitPlan(p));
    ledger.OnPlanComplete(p);
  }
  EXPECT_TRUE(ledger.Finish().complete());
}

/// Cancels the query's token on its first batch, as a client that gives up
/// once it has a first answer would; keeps the batches it saw.
class CancelOnFirstBatch : public engine::ResultSink {
 public:
  explicit CancelOnFirstBatch(CancelToken* token) : token_(token) {}

  void OnBatch(std::span<const Mtton> batch) override {
    if (batches_.empty()) token_->RequestCancel();
    batches_.emplace_back(batch.begin(), batch.end());
  }

  const std::vector<std::vector<Mtton>>& batches() const { return batches_; }

 private:
  CancelToken* token_;
  std::vector<std::vector<Mtton>> batches_;
};

// A stop only truncates: cancelled mid-query, serially or on the pool, the
// executor's results from size classes <= exhausted_class byte-match the
// unbounded run, and the first batch lies inside that sound prefix. The
// coverage shows the plans the stop cut short or never started: always
// serially; on the pool in the runs where the stop lands before the last
// plan finishes, which on this query is nearly every run.
TEST_F(AnytimeTest, StopMidQueryLeavesASoundPrefix) {
  QueryOptions options;
  options.max_size_z = 8;  // 40 networks
  options.per_network_k = 100;
  XK_ASSERT_OK_AND_ASSIGN(engine::PreparedQuery q,
                          xk_->Prepare({"ullman", "widom"}, "XKeyword", options));
  std::map<int, int> class_of;
  for (size_t p = 0; p < q.ctssns.size(); ++p) {
    class_of[static_cast<int>(p)] = q.ctssns[p].cn_size;
  }
  engine::TopKExecutor executor;
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    Coverage full;
    XK_ASSERT_OK_AND_ASSIGN(const std::vector<Mtton> unbounded,
                            executor.Run(q, options, nullptr, &full));
    ASSERT_TRUE(full.complete());
    const int reps = threads == 1 ? 1 : 10;
    int cut = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const std::string what =
          (::testing::Message() << "threads=" << threads << " rep=" << rep)
              .GetString();
      CancelToken token;
      CancelOnFirstBatch sink(&token);
      QueryOptions stopped = options;
      stopped.cancel = &token;
      Coverage cov;
      XK_ASSERT_OK_AND_ASSIGN(const std::vector<Mtton> results,
                              executor.Run(q, stopped, nullptr, &cov, &sink));
      if (cov.interrupted || cov.cns_skipped > 0) {
        ++cut;
        EXPECT_LT(cov.exhausted_class, full.exhausted_class) << what;
      }
      ASSERT_FALSE(sink.batches().empty()) << what;
      const std::vector<Mtton>& first = sink.batches()[0];
      ASSERT_FALSE(first.empty()) << what;
      ASSERT_LE(first.size(), unbounded.size()) << what;
      EXPECT_TRUE(std::equal(first.begin(), first.end(), unbounded.begin())) << what;
      EXPECT_LE(class_of.at(first.back().ctssn_index), cov.exhausted_class) << what;
      EXPECT_EQ(PrefixOfClass(results, class_of, cov.exhausted_class),
                PrefixOfClass(unbounded, class_of, cov.exhausted_class))
          << what;
    }
    if (threads == 1) {
      EXPECT_EQ(cut, 1);
    } else {
      EXPECT_GT(cut, 0);
    }
  }
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
