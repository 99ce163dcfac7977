// Copyright (c) the XKeyword authors.
//
// The Optimizer of Figure 7: turns each candidate TSS network into an
// executable left-deep join over connection relations. Decisions, following
// Section 4: (a) which relations tile the network — exact DP (opt/tiler);
// (b) loop order — outermost the most selective keyword relation, then
// greedily by estimated output, which also maximizes the partial-result
// cache hits of Section 6 (repeated inner bindings through reference edges).

#ifndef XK_OPT_OPTIMIZER_H_
#define XK_OPT_OPTIMIZER_H_

#include <string>
#include <vector>

#include "cn/ctssn.h"
#include "exec/plan.h"
#include "opt/tiler.h"
#include "schema/decomposer.h"

namespace xk::opt {

/// An executable plan for one CTSSN.
struct CtssnPlan {
  const cn::Ctssn* ctssn = nullptr;
  /// Left-deep join; empty steps for single-object networks (handled from
  /// the master index alone).
  exec::JoinQuery query;
  /// Per CTSSN occurrence: which (step, column) of the join output carries
  /// its object id.
  std::vector<exec::ColumnRef> node_source;
  int joins = 0;
  double estimated_cost = 0.0;
  /// Per step: a signature of (relation, local filters) for common
  /// subexpression reuse across the plans of one query.
  std::vector<std::string> step_signatures;
  /// Per step: a canonical signature of the whole join prefix ending at that
  /// step — relation + local filters + equi-join edges of every step so far.
  /// Equal strings across plans mean interchangeable join intermediates (the
  /// full-result executor's prefix memo, engine/full_executor.cc).
  std::vector<std::string> prefix_signatures;
  /// Cost-model estimate of the plan's output cardinality (candidate-network
  /// scheduling key; ties inside a network-size class break cheapest-first).
  double estimated_rows = 0.0;
};

/// The top-k execution order of `plans`: nondecreasing network size (smaller
/// networks answer first and rank higher), then `estimated_rows` cheapest
/// first, then plan index. Depends only on plan metadata, so every run of a
/// prepared query uses the same order; global_k cuts, anytime admission and
/// result streaming all follow it.
std::vector<size_t> PlanSchedule(const std::vector<CtssnPlan>& plans);

/// Per CTSSN occurrence, the id-set restrictions derived from its keyword
/// annotations (owned by the caller; pointers must outlive execution).
using NodeFilters = std::vector<std::vector<const storage::IdSet*>>;

class Optimizer {
 public:
  Optimizer(const schema::TssGraph* tss, const decomp::Decomposition* decomposition,
            const storage::Catalog* catalog,
            const schema::TargetObjectGraph* objects);

  /// Plans `ctssn` with the given per-node filters.
  Result<CtssnPlan> Plan(const cn::Ctssn& ctssn, const NodeFilters& filters) const;

 private:
  const schema::TssGraph* tss_;
  const decomp::Decomposition* decomposition_;
  const storage::Catalog* catalog_;
  const schema::TargetObjectGraph* objects_;
};

}  // namespace xk::opt

#endif  // XK_OPT_OPTIMIZER_H_
