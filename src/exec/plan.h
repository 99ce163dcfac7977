// Copyright (c) the XKeyword authors.
//
// Join plans over connection relations. A JoinQuery is a left-deep sequence of
// steps; each step scans or probes one relation, equating some of its columns
// with columns of earlier steps (the join edges of the fragment tiling) and
// restricting others to keyword containing lists.
//
// NestedLoopExecutor interprets such a query as pipelined index-nested loops,
// the paper's choice for top-k queries (Section 6: "XKeyword uses nested
// loops join, where the nesting of the loops is determined by a depth first
// traversal"). The other join driver, full scans plus hash joins for complete
// results (Section 7: "the full table scan and the hash join is the fastest
// way"), is the full executor's (engine/full_executor.cc), over
// exec::JoinHashTable.

#ifndef XK_EXEC_PLAN_H_
#define XK_EXEC_PLAN_H_

#include <functional>
#include <limits>
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

/// A left-deep join query plus execution limits.
struct JoinQuery {
  std::vector<JoinStep> steps;

  /// Checks referential sanity (steps non-null, eq refs strictly backward,
  /// column indexes in range).
  Status Validate() const;
};

/// Receives one output row as per-step views into base tables. Return false to
/// stop execution.
using RowSink =
    std::function<bool(const std::vector<storage::TupleView>& step_rows)>;

/// Pipelined nested-loops interpreter.
class NestedLoopExecutor {
 public:
  NestedLoopExecutor(const JoinQuery* query, ExecOptions opts)
      : query_(query), opts_(opts) {}

  /// Runs until the sink declines, `limit` rows are produced, or input is
  /// exhausted. Reentrant: each Run starts fresh (stats accumulate).
  Status Run(const RowSink& sink,
             size_t limit = std::numeric_limits<size_t>::max());

  /// Installs semi-join prune filters, one entry per step (may be shorter;
  /// missing/empty entries mean "no pruning for that step"). Filters must
  /// outlive Run.
  void set_step_blooms(const std::vector<std::vector<ColumnBloom>>* step_blooms) {
    step_blooms_ = step_blooms;
  }

  const ProbeStats& stats() const { return stats_; }

 private:
  bool Recurse(size_t depth, std::vector<storage::TupleView>* rows,
               const RowSink& sink, size_t limit, size_t* produced);

  const JoinQuery* query_;
  ExecOptions opts_;
  const std::vector<std::vector<ColumnBloom>>* step_blooms_ = nullptr;
  ProbeStats stats_;
  /// Per-depth probe bindings, reused across rows (no inner-loop allocation).
  std::vector<std::vector<ColumnBinding>> binding_scratch_;
  /// Per-depth row copies for the disk backend (RowInto): a depth's view must
  /// stay valid while deeper steps recurse, so each depth owns its scratch.
  std::vector<storage::Tuple> row_scratch_;
};

}  // namespace xk::exec

#endif  // XK_EXEC_PLAN_H_
