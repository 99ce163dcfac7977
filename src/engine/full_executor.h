// Copyright (c) the XKeyword authors.
//
// Full-result execution (the "output all the results" mode of Figure 15(b)).
// Indexed decompositions run index-nested-loops (what a DBMS picks when
// indexes exist) through the top-k executor's PlanEvaluator, with its
// Section-6 suffix cache and pay-as-you-go Bloom filters; unindexed ones run
// full-scan hash joins — the paper found the latter fastest for complete
// outputs on the small minimal relations. Keyword-filtered relation scans are
// materialized once per query and shared across candidate networks
// (Section 4's common-subexpression reuse). Results are ranked plan by plan:
// plans run in (CN size, index) order and each sorts its own results.

#ifndef XK_ENGINE_FULL_EXECUTOR_H_
#define XK_ENGINE_FULL_EXECUTOR_H_

#include <vector>

#include "engine/query_context.h"
#include "present/mtton.h"
#include "storage/table.h"

namespace xk::engine {

/// Full-result executor over the merged QueryOptions knobs: the
/// decomposition picks the join strategy, `enable_cache`/`cache_capacity`
/// size the index-nested-loop suffix cache, and `cancel` is polled between
/// plans, between join steps, and inside probe scans. The hash-join path
/// always shares keyword-filtered scans across networks and memoizes
/// join-prefix intermediates that several networks share.
class FullExecutor {
 public:
  explicit FullExecutor(QueryOptions options = {}) : options_(options) {}

  /// When `coverage` is non-null, records per-plan completion so the caller
  /// can derive a Completeness statement (kAll runs are not budgeted — the
  /// mode's contract is the complete list — but a deadline/cancel trip still
  /// yields an honest partial-coverage report).
  Result<std::vector<present::Mtton>> Run(const PreparedQuery& query,
                                          ExecutionStats* stats = nullptr,
                                          Coverage* coverage = nullptr);

 private:
  QueryOptions options_;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_FULL_EXECUTOR_H_
