// Copyright (c) the XKeyword authors.
//
// Join plans over connection relations. A JoinQuery is a left-deep sequence of
// steps; each step scans or probes one relation, equating some of its columns
// with columns of earlier steps (the join edges of the fragment tiling) and
// restricting others to keyword containing lists.
//
// Two interpreters are provided:
//  * NestedLoopExecutor — pipelined index-nested-loops, the paper's choice for
//    top-k queries (Section 6: "XKeyword uses nested loops join, where the
//    nesting of the loops is determined by a depth first traversal").
//  * HashJoinExecutor — bottom-up hash joins with full scans, the plan the
//    DBMS picks for full-result queries on unindexed minimal decompositions
//    (Section 7: "the full table scan and the hash join is the fastest way").

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

/// Receives one output row as per-step views into base tables (nested loops)
/// or materialized intermediates (hash join). Return false to stop execution.
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

/// Bottom-up hash-join interpreter: materializes step 0 (after filters), then
/// hash-joins each further step in order.
///
/// With `opts.vectorized` (the default) the build side is a flat
/// open-addressing JoinHashTable (precomputed hashes, arena duplicate
/// chains), intermediates are flat arrays of scan ordinals, and
/// cancellation is polled once per block of probe rows; `vectorized = false`
/// keeps the legacy unordered_map build for A/B comparison. Output is
/// byte-identical.
class HashJoinExecutor {
 public:
  explicit HashJoinExecutor(const JoinQuery* query, ExecOptions opts = {})
      : query_(query), opts_(opts) {}

  Status Run(const RowSink& sink);

  /// Rows materialized across all intermediates (work measure for benches).
  uint64_t rows_materialized() const { return rows_materialized_; }

 private:
  Status RunVectorized(const RowSink& sink);
  Status RunLegacy(const RowSink& sink);

  const JoinQuery* query_;
  ExecOptions opts_;
  uint64_t rows_materialized_ = 0;
};

}  // namespace xk::exec

#endif  // XK_EXEC_PLAN_H_
