// Copyright (c) the XKeyword authors.
//
// Join plans over connection relations. A JoinQuery is a left-deep sequence of
// steps; each step scans or probes one relation, equating some of its columns
// with columns of earlier steps (the join edges of the fragment tiling) and
// restricting others to keyword containing lists.
//
// Two drivers interpret such a query, both over exec::ForEachMatch probes:
// engine::PlanEvaluator runs it as pipelined index-nested loops with the
// Section-6 suffix cache (Section 6: "XKeyword uses nested loops join, where
// the nesting of the loops is determined by a depth first traversal"), and
// the full executor's HashJoinOnScans runs full scans plus hash joins over
// exec::JoinHashTable for complete results on unindexed decompositions
// (Section 7: "the full table scan and the hash join is the fastest way").

#ifndef XK_EXEC_PLAN_H_
#define XK_EXEC_PLAN_H_

#include <vector>

#include "common/status.h"
#include "exec/operators.h"

namespace xk::exec {

/// Names a column of an earlier step in the same query.
struct ColumnRef {
  int step;
  int column;
  bool operator==(const ColumnRef&) const = default;
};

/// One relation access of a left-deep join.
struct JoinStep {
  const storage::Table* table = nullptr;
  /// this step's column == earlier step's column (ref.step < this step's pos).
  std::vector<std::pair<int, ColumnRef>> eq;
  /// this step's column restricted to an id set (keyword containing list).
  std::vector<ColumnInSet> in_filters;
  /// this step's column pinned to a constant.
  std::vector<ColumnBinding> const_filters;
};

/// A left-deep join query.
struct JoinQuery {
  std::vector<JoinStep> steps;

  /// Checks referential sanity (steps non-null, eq refs strictly backward,
  /// column indexes in range).
  Status Validate() const;
};

}  // namespace xk::exec

#endif  // XK_EXEC_PLAN_H_
