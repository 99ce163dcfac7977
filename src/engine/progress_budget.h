// Copyright (c) the XKeyword authors.
//
// ProgressBudget: the anytime-execution ledger of one query. The plan
// schedule (opt::PlanSchedule) runs candidate networks in nondecreasing size
// class, cheapest first inside a class; this ledger decides per plan whether
// a deterministic cost budget affords running it at all, and records every
// plan's outcome so the response can report a sound quality bound
// (engine::Coverage).
//
// The cost budget (QueryOptions::anytime_cost_budget > 0) charges the
// optimizer's estimated_cost against a fixed budget in schedule order. It is
// fully deterministic (the expansion-budget idiom of real-time search: spend
// a fixed number of "expansions" where they are cheapest), which makes the
// coverage bound reproducible and provably monotone in the budget. Decisions
// for the whole schedule are taken up front (PreAdmit), so the multi-threaded
// plan pool sees the same admitted set as a serial run.
//
// A deadline or cancel never enters admission: it trips the token the
// executors poll per plan, per join level and per probe block, which
// truncates the schedule where it stands; the ledger records the plan it
// landed in as interrupted and the unvisited ones as skipped.
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
  /// `cost_budget` > 0 engages the cost budget; 0 keeps a ledger only, which
  /// admits every active plan and backs the coverage report.
  ProgressBudget(const PreparedQuery& query, const std::vector<bool>& active,
                 double cost_budget = 0);

  /// Takes every admission decision now, charging plans in `schedule` order,
  /// so the decision set is independent of execution interleaving. No-op
  /// without a cost budget.
  void PreAdmit(const std::vector<size_t>& schedule);

  /// Whether plan `p` should run. False records the plan as skipped.
  /// Thread-safe; under a cost budget returns the PreAdmit decision.
  bool AdmitPlan(size_t p);

  /// Plan `p` ran to completion (including an emit-cap stop, which is
  /// semantically complete).
  void OnPlanComplete(size_t p);
  /// Plan `p` stopped mid-execution (deadline or cancel).
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

  void Record(size_t p, Outcome outcome);

  const PreparedQuery* query_;
  std::vector<bool> active_;
  const double cost_budget_;  // 0 = no budget

  mutable std::mutex mutex_;
  std::vector<Outcome> outcomes_;
  std::vector<uint8_t> pre_admitted_;  // cost budget only; parallel to plans
  bool pre_admit_done_ = false;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_PROGRESS_BUDGET_H_
