// Copyright (c) the XKeyword authors.
//
// ProgressBudget: the anytime-execution ledger of one query. The cost-ordered
// plan-DAG schedule (opt::BuildPlanDag) runs candidate networks in
// nondecreasing size class, cheapest first inside a class; this ledger decides
// per plan whether the remaining budget affords running it at all — so a
// deadline skips whole CNs instead of truncating mid-CN — and records every
// plan's outcome so the response can report a sound quality bound
// (engine::Coverage).
//
// Two budget modes, combinable with plain deadline truncation:
//
//  * cost-budget (QueryOptions::anytime_cost_budget > 0) — admission charges
//    the optimizer's estimated_cost against a fixed budget in schedule order.
//    Fully deterministic (the expansion-budget idiom of real-time search:
//    spend a fixed number of "expansions" where they are cheapest), which
//    makes the coverage bound reproducible and provably monotone in the
//    budget. Decisions for the whole schedule are taken up front (PreAdmit),
//    so the multi-threaded plan pool sees the same admitted set as a serial
//    run.
//  * wall-clock (a deadline armed on the cancel token) — admission compares
//    each plan's predicted time (estimated_cost x an EWMA of observed
//    ns-per-cost-unit, scaled by anytime_headroom) against the remaining
//    deadline, re-calibrated as plans complete. Additionally converts the
//    remaining deadline into a per-plan scan-row allowance (RowAllowance)
//    that the plan's evaluator checks against its own rows_scanned, so one
//    mispredicted plan cannot eat the entire budget.
//
// Soundness of the reported bound: the schedule is nondecreasing in size
// class, so all plans of class <= exhausted_class precede the first deviation
// (skip or interruption) and executed byte-identically to an unbounded run.

#ifndef XK_ENGINE_PROGRESS_BUDGET_H_
#define XK_ENGINE_PROGRESS_BUDGET_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "engine/query_context.h"

namespace xk::engine {

class ProgressBudget {
 public:
  /// `active[p]` = plan p participates in this query (not size-capped).
  /// Budgeting engages only when `options.enable_anytime` and either a cost
  /// budget is set or a deadline is armed on `options.cancel`; otherwise the
  /// ledger only tracks outcomes (AdmitPlan always true, no row allowance), so
  /// coverage is reported even for non-anytime runs.
  ProgressBudget(const PreparedQuery& query, const std::vector<bool>& active,
                 const QueryOptions& options);

  /// Cost-budget mode: takes every admission decision now, charging plans in
  /// `schedule` order, so the decision set is independent of execution
  /// interleaving. No-op in the other modes.
  void PreAdmit(const std::vector<size_t>& schedule);

  /// Whether plan `p` should run. False records the plan as skipped.
  /// Thread-safe; in cost-budget mode returns the PreAdmit decision.
  bool AdmitPlan(size_t p);

  /// Wall-clock mode, once calibrated: the scan-row allowance for a plan
  /// about to run, derived from the remaining deadline and never below
  /// anytime_min_plan_rows. 0 = unlimited.
  uint64_t RowAllowance();

  /// Plan `p` ran to completion (including an emit-cap stop, which is
  /// semantically complete). `rows_scanned`/`elapsed_ns` feed the wall-clock
  /// calibration; pass 0 when unknown.
  void OnPlanComplete(size_t p, uint64_t rows_scanned, uint64_t elapsed_ns);
  /// Plan `p` stopped mid-execution (deadline, cancel, or a spent row
  /// allowance).
  void OnPlanInterrupted(size_t p);

  /// The global-k bound was satisfied: every still-unvisited plan is
  /// semantically complete (the answer needs nothing from it).
  void MarkUnreachedComplete();

  /// Coverage summary over the active plans. Plans never visited (loop broke
  /// on a stop) count as skipped unless MarkUnreachedComplete ran.
  Coverage Finish() const;

 private:
  enum class Outcome : uint8_t {
    kNotReached = 0,
    kComplete,
    kInterrupted,
    kSkipped,
  };

  double PlanCost(size_t p) const;
  bool DeadlineAdmit(double cost);
  void Record(size_t p, Outcome outcome);

  const PreparedQuery* query_;
  std::vector<bool> active_;

  // Budget configuration (fixed at construction).
  bool cost_mode_ = false;
  bool deadline_mode_ = false;
  double cost_budget_ = 0;
  double headroom_ = 1.0;
  uint64_t min_plan_rows_ = 1;
  const CancelToken* cancel_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<Outcome> outcomes_;
  std::vector<uint8_t> pre_admitted_;  // cost mode only; parallel to plans
  bool pre_admit_done_ = false;
  double spent_ = 0;
  bool any_admitted_ = false;
  bool deadline_limited_ = false;  // see Coverage::deadline_limited
  // Wall-clock calibration from completed plans.
  bool calibrated_ = false;
  double ewma_ns_per_cost_ = 0;
  double ewma_ns_per_row_ = 0;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_PROGRESS_BUDGET_H_
