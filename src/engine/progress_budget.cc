// Copyright (c) the XKeyword authors.

#include "engine/progress_budget.h"

#include <algorithm>
#include <map>
#include <utility>

namespace xk::engine {

ProgressBudget::ProgressBudget(const PreparedQuery& query,
                               const std::vector<bool>& active,
                               double cost_budget)
    : query_(&query), active_(active), cost_budget_(cost_budget) {
  outcomes_.assign(query.plans.size(), Outcome::kNotReached);
  active_.resize(query.plans.size(), false);
}

void ProgressBudget::PreAdmit(const std::vector<size_t>& schedule) {
  if (cost_budget_ <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (pre_admit_done_) return;
  pre_admit_done_ = true;
  pre_admitted_.assign(query_->plans.size(), 0);
  double spent = 0;
  bool first = true;
  for (size_t p : schedule) {
    if (p >= active_.size() || !active_[p]) continue;
    // The optimizer's cost can legitimately be tiny (single-object
    // networks); clamp so every plan charges something.
    const double cost = std::max(1.0, query_->plans[p].estimated_cost);
    // The first active plan always runs: an anytime engine returns its best
    // effort, never an empty answer because the budget was set too small.
    if (first || spent + cost <= cost_budget_) {
      pre_admitted_[p] = 1;
      spent += cost;
      first = false;
    }
  }
}

bool ProgressBudget::AdmitPlan(size_t p) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (p >= active_.size() || !active_[p]) return false;
  const bool admit =
      cost_budget_ <= 0 || (pre_admit_done_ && pre_admitted_[p] != 0);
  if (!admit) outcomes_[p] = Outcome::kSkipped;
  return admit;
}

void ProgressBudget::Record(size_t p, Outcome outcome) {
  if (p < outcomes_.size()) outcomes_[p] = outcome;
}

void ProgressBudget::OnPlanComplete(size_t p) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record(p, Outcome::kComplete);
}

void ProgressBudget::OnPlanInterrupted(size_t p) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record(p, Outcome::kInterrupted);
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
