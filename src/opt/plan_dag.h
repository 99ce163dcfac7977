// Copyright (c) the XKeyword authors.
//
// Turns the per-query forest of candidate-network plans into a shared-subplan
// DAG plus an execution schedule. Sharing: canonical prefix signatures
// (optimizer-emitted, covering relation + local filters + join edges of every
// step of the prefix) identify common join prefixes across CNs; each plan is
// assigned its deepest prefix that at least `min_consumers` plans share, and
// that node is materialized once (opt::SubplanCache) and replayed by every
// consumer. Scheduling: plans run in nondecreasing network size (the ranking
// contract — smaller networks answer first), cost-ordered inside a size class
// by the cost model's output-cardinality estimate, cheapest first. The
// cheapest consumer of a shared group therefore runs first and becomes the
// group's producer (the hoisted shared producer), and the top-k executor
// reaches its global stopping bound earlier. The schedule depends only on
// plan metadata — never on reuse/threading knobs — so results stay
// byte-identical across those axes.

#ifndef XK_OPT_PLAN_DAG_H_
#define XK_OPT_PLAN_DAG_H_

#include <string>
#include <vector>

#include "opt/optimizer.h"

namespace xk::opt {

struct PlanDagOptions {
  /// Order plans inside a network-size class by estimated output cardinality
  /// (cheapest first). Off = the legacy order (size class, then plan index).
  bool cost_ordered = true;
  /// Detect shared join prefixes; off = every plan runs standalone.
  bool share_subplans = true;
  /// A prefix becomes a DAG node when at least this many active plans carry
  /// its signature.
  int min_consumers = 2;
};

/// One shared node of the plan DAG: the join prefix steps [0, depth] of every
/// consuming plan.
struct SharedSubplan {
  std::string signature;
  int depth = 0;
  /// Active plans whose assigned prefix this node is (its direct consumers).
  int consumers = 0;
};

struct PlanDag {
  /// Every plan index, in execution order (inactive plans keep their sorted
  /// slot; executors still skip them).
  std::vector<size_t> schedule;
  /// Per plan: index into `subplans` of its assigned shared prefix, or -1.
  std::vector<int> shared_subplan;
  std::vector<SharedSubplan> subplans;
};

/// Builds the DAG over `plans`. `active[p]` excludes plans the executor will
/// skip (size caps) from sharing analysis, so consumer counts are real.
PlanDag BuildPlanDag(const std::vector<CtssnPlan>& plans,
                     const std::vector<bool>& active,
                     const PlanDagOptions& options);

}  // namespace xk::opt

#endif  // XK_OPT_PLAN_DAG_H_
