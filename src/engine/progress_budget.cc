// Copyright (c) the XKeyword authors.

#include "engine/progress_budget.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

namespace xk::engine {
namespace {

// EWMA weight of the newest completed plan's observation. High because early
// plans (small CNs) under-predict the per-cost time of later, larger ones;
// recent observations are the better forecast.
constexpr double kEwmaAlpha = 0.5;

int64_t RemainingNs(const CancelToken* cancel) {
  auto now = std::chrono::steady_clock::now();
  auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
      cancel->deadline_time() - now);
  return left.count();
}

}  // namespace

ProgressBudget::ProgressBudget(const PreparedQuery& query,
                               const std::vector<bool>& active)
    : query_(&query), active_(active) {
  outcomes_.assign(query.plans.size(), Outcome::kNotReached);
  active_.resize(query.plans.size(), false);
}

ProgressBudget::ProgressBudget(const PreparedQuery& query,
                               const std::vector<bool>& active,
                               const QueryOptions& options)
    : ProgressBudget(query, active) {
  headroom_ = std::max(1.0, options.anytime_headroom);
  min_plan_rows_ = std::max<uint64_t>(1, options.anytime_min_plan_rows);
  cancel_ = options.cancel;
  if (options.anytime_cost_budget > 0) {
    cost_mode_ = true;
    cost_budget_ = options.anytime_cost_budget;
  }
  if (cancel_ != nullptr && cancel_->has_deadline()) deadline_mode_ = true;
}

double ProgressBudget::PlanCost(size_t p) const {
  // The optimizer's cost can legitimately be tiny (single-object networks);
  // clamp so every plan charges something and a zero-cost run of plans can't
  // make the wall-clock calibration divide by zero.
  return std::max(1.0, query_->plans[p].estimated_cost);
}

void ProgressBudget::PreAdmit(const std::vector<size_t>& schedule) {
  if (!cost_mode_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (pre_admit_done_) return;
  pre_admit_done_ = true;
  pre_admitted_.assign(query_->plans.size(), 0);
  double spent = 0;
  bool first = true;
  for (size_t p : schedule) {
    if (p >= active_.size() || !active_[p]) continue;
    double cost = PlanCost(p);
    // The first active plan always runs: an anytime engine returns its best
    // effort, never an empty answer because the budget was set too small.
    if (first || spent + cost <= cost_budget_) {
      pre_admitted_[p] = 1;
      spent += cost;
      first = false;
    }
  }
  spent_ = spent;
}

bool ProgressBudget::DeadlineAdmit(double cost) {
  // Until at least one plan has completed there is no calibration; admit
  // (the plain deadline truncation still backstops a gross overshoot).
  if (!calibrated_) return true;
  int64_t remaining = RemainingNs(cancel_);
  if (remaining <= 0) return false;
  double predicted = cost * ewma_ns_per_cost_ * headroom_;
  return predicted <= static_cast<double>(remaining);
}

bool ProgressBudget::AdmitPlan(size_t p) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (p >= active_.size() || !active_[p]) return false;
  bool admit = true;
  if (cost_mode_) {
    admit = pre_admit_done_ && pre_admitted_[p] != 0;
  }
  if (admit && deadline_mode_) {
    admit = !any_admitted_ ? true : DeadlineAdmit(PlanCost(p));
    if (!admit) deadline_limited_ = true;
  }
  if (!admit) {
    outcomes_[p] = Outcome::kSkipped;
  } else {
    any_admitted_ = true;
  }
  return admit;
}

uint64_t ProgressBudget::RowAllowance() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!deadline_mode_ || !calibrated_ || ewma_ns_per_row_ <= 0) return 0;
  int64_t remaining = RemainingNs(cancel_);
  if (remaining <= 0) return min_plan_rows_;
  double rows =
      static_cast<double>(remaining) / (ewma_ns_per_row_ * headroom_);
  return static_cast<uint64_t>(
      std::max(static_cast<double>(min_plan_rows_), rows));
}

void ProgressBudget::Record(size_t p, Outcome outcome) {
  if (p < outcomes_.size()) outcomes_[p] = outcome;
}

void ProgressBudget::OnPlanComplete(size_t p, uint64_t rows_scanned,
                                    uint64_t elapsed_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record(p, Outcome::kComplete);
  if (!deadline_mode_ || elapsed_ns == 0) return;
  double ns_per_cost = static_cast<double>(elapsed_ns) / PlanCost(p);
  double ns_per_row = rows_scanned > 0
                          ? static_cast<double>(elapsed_ns) /
                                static_cast<double>(rows_scanned)
                          : 0;
  if (!calibrated_) {
    ewma_ns_per_cost_ = ns_per_cost;
    ewma_ns_per_row_ = ns_per_row;
    calibrated_ = true;
  } else {
    ewma_ns_per_cost_ =
        kEwmaAlpha * ns_per_cost + (1 - kEwmaAlpha) * ewma_ns_per_cost_;
    if (ns_per_row > 0) {
      ewma_ns_per_row_ = ewma_ns_per_row_ > 0
                             ? kEwmaAlpha * ns_per_row +
                                   (1 - kEwmaAlpha) * ewma_ns_per_row_
                             : ns_per_row;
    }
  }
}

void ProgressBudget::OnPlanInterrupted(size_t p) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record(p, Outcome::kInterrupted);
  // A spent row allowance or the deadline itself; an explicit cancel is not
  // the deadline's doing.
  if (deadline_mode_ && !cancel_->cancel_requested()) deadline_limited_ = true;
}

void ProgressBudget::MarkUnreachedComplete() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t p = 0; p < outcomes_.size(); ++p) {
    if (active_[p] && outcomes_[p] == Outcome::kNotReached) {
      outcomes_[p] = Outcome::kComplete;
    }
  }
}

Coverage ProgressBudget::Finish() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Coverage cov;
  cov.deadline_limited = deadline_limited_;
  // exhausted_class = largest C with every active class-<=C plan complete.
  // Computed per class so the formula is order-independent (the kAll path
  // runs plans in index order, the top-k paths in schedule order).
  std::map<int, std::pair<uint32_t, uint32_t>> per_class;  // complete, total
  for (size_t p = 0; p < outcomes_.size(); ++p) {
    if (!active_[p]) continue;
    int cls = query_->ctssns[p].cn_size;
    auto& slot = per_class[cls];
    ++slot.second;
    switch (outcomes_[p]) {
      case Outcome::kComplete:
        ++slot.first;
        ++cov.cns_executed;
        break;
      case Outcome::kInterrupted:
        ++cov.cns_executed;  // ran, but not to completion
        cov.interrupted = true;
        break;
      case Outcome::kSkipped:
      case Outcome::kNotReached:
        ++cov.cns_skipped;
        break;
    }
  }
  for (const auto& [cls, counts] : per_class) {
    if (counts.first != counts.second) break;
    cov.exhausted_class = cls;
  }
  return cov;
}

}  // namespace xk::engine
