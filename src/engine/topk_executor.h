// Copyright (c) the XKeyword authors.
//
// The optimized top-k execution algorithm of Section 6: nested-loops joins
// whose inner subtrees are memoized in a fixed-size cache keyed by their join
// bindings — "when evaluating CTSSN2 for t2, the innermost loop should not be
// executed since it will produce the same results as before". Disabling the
// cache yields the naive algorithm of DISCOVER/DBXplorer (naive_executor.h).
//
// Parallelism is the paper's per-CN thread pool: "a thread is assigned to
// each CN starting from the smaller ones". Each plan fills its own result
// buffer and the buffers merge in schedule order, so the answer is
// byte-identical to a single-threaded run.
//
// Semi-join keyword pruning: per plan step, the keyword filter sets are
// intersected and the join columns later steps probe are summarized into
// Bloom filters, letting ForEachMatch reject dead-end partial assignments
// without touching the table.

#ifndef XK_ENGINE_TOPK_EXECUTOR_H_
#define XK_ENGINE_TOPK_EXECUTOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "engine/query_context.h"
#include "engine/result_sink.h"
#include "exec/subplan_source.h"
#include "opt/plan_dag.h"
#include "opt/subplan_cache.h"
#include "present/mtton.h"

namespace xk::engine {

/// Emit callback: a complete binding (object per CTSSN occurrence) of plan
/// `plan_index`. Return false to stop that plan's execution.
using MttonSink = std::function<bool(int plan_index,
                                     const std::vector<storage::ObjectId>& objects)>;

/// Cache of semi-join Bloom filters shared across the plans of one query.
/// Keyed by (step signature, column): plans frequently share steps (same
/// relation + local keyword filters), so each filter is built — one filtered
/// scan — at most once per query. Thread-safe: the map lock covers only the
/// entry lookup, so pool threads build filters for different keys at once.
class BloomCache {
 public:
  /// `use_indexes` is the query's ExecOptions::use_indexes: on, a build scan
  /// may run as a keyword seek; off, it never touches an index.
  explicit BloomCache(bool use_indexes) : use_indexes_(use_indexes) {}

  /// The filter over `column` values of rows of `step.table` passing the
  /// step's local filters, sized for those rows; built on first use.
  /// `build_stats` (nullable) receives the build scan's row count.
  const storage::BloomFilter* GetOrBuild(const exec::JoinStep& step,
                                         const std::string& signature, int column,
                                         ExecutionStats* build_stats);

 private:
  struct Entry {
    std::once_flag built;
    std::unique_ptr<storage::BloomFilter> filter;
  };

  const bool use_indexes_;
  std::mutex mutex_;  // guards the map; an entry's filter is set once
  std::map<std::string, Entry> filters_;
};

/// Immutable per-plan precomputation: step dependencies, occurrence bindings,
/// same-segment groups, plus the semi-join structures — per-step keyword
/// filters intersected down to one set per column, and per-step Bloom filters
/// over the probed join columns.
class PlanLayout {
 public:
  /// `bloom_cache` may be null (disables pruning, as does
  /// `enable_semijoin_pruning = false`).
  PlanLayout(const opt::CtssnPlan* plan, bool enable_semijoin_pruning,
             BloomCache* bloom_cache, ExecutionStats* build_stats);

  const opt::CtssnPlan& plan() const { return *plan_; }
  /// Per-step prune filters, usable with exec::ForEachMatch or
  /// exec::NestedLoopExecutor::set_step_blooms.
  const std::vector<std::vector<exec::ColumnBloom>>& step_blooms() const {
    return step_blooms_;
  }
  /// Per-step keyword filters with same-column sets intersected.
  const std::vector<exec::ColumnInSet>& step_filters(size_t step) const {
    return step_filters_[step];
  }

 private:
  friend class PlanEvaluator;

  const opt::CtssnPlan* plan_;
  // Per step i: deps (earlier columns read by steps >= i), CTSSN nodes first
  // bound at step i, and nodes bound at steps >= i.
  std::vector<std::vector<exec::ColumnRef>> deps_;
  std::vector<std::vector<std::pair<int, int>>> nodes_at_;  // (ctssn node, col)
  std::vector<std::vector<int>> suffix_nodes_;
  /// Occurrence groups sharing a segment (only groups of size >= 2).
  std::vector<std::vector<int>> same_segment_groups_;
  std::vector<std::vector<exec::ColumnInSet>> step_filters_;
  std::deque<storage::IdSet> owned_sets_;  // stable storage for intersections
  std::vector<std::vector<exec::ColumnBloom>> step_blooms_;
};

/// Evaluates one CTSSN plan by depth-first nested loops with optional suffix
/// memoization. Not thread-safe: a plan runs on one pool thread.
class PlanEvaluator {
 public:
  PlanEvaluator(const PlanLayout* layout, exec::ExecOptions exec_options,
                bool enable_cache, size_t cache_capacity);

  /// Runs to completion or until `emit` declines.
  /// `emit` receives the objects per CTSSN occurrence.
  void Run(const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);

  /// Replays the rows of a materialized shared subplan: binds the prefix
  /// steps from the stored row ids (no probes), then runs the nested loops
  /// from the first unshared step. Replay order equals the producer's
  /// enumeration order, so output is byte-identical to evaluating the prefix
  /// directly. `prefix.arity()` must not exceed the plan's steps.
  void RunReplay(const exec::MaterializedSubplan& prefix,
                 const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);

  const ExecutionStats& stats() const { return stats_; }

  /// Caps the rows this evaluator may scan (0 = unlimited). Once its
  /// rows_scanned reaches the allowance the evaluator unwinds exactly like a
  /// cancellation — as if the sink declined — so no truncated suffix
  /// enumeration is ever cached. Checked at every Eval entry, so the last
  /// probe may overrun it.
  void set_row_allowance(uint64_t rows) { row_allowance_ = rows; }

  /// True when a row allowance is set and the rows scanned reached it.
  bool row_allowance_spent() const {
    return row_allowance_ != 0 && stats_.probes.rows_scanned >= row_allowance_;
  }

 private:
  struct Collector {
    size_t level;
    std::vector<std::vector<storage::ObjectId>> completions;
  };

  bool Eval(size_t i, std::vector<storage::TupleView>* rows,
            std::vector<storage::ObjectId>* objs,
            const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);
  void ProjectToCollectors(const std::vector<storage::ObjectId>& objs);
  std::string CacheKey(size_t i, const std::vector<storage::TupleView>& rows) const;
  /// MTNNs are trees of distinct nodes: occurrences of one segment must bind
  /// distinct objects (checked per full assignment; cached suffixes cannot
  /// pre-check against future prefixes).
  bool DistinctAcrossSegments(const std::vector<storage::ObjectId>& objs) const;

  const PlanLayout* layout_;
  const opt::CtssnPlan* plan_;
  exec::ExecOptions exec_options_;
  bool enable_cache_;

  // One cache per step level (level 0 has no dependencies, never cached).
  std::vector<std::unique_ptr<
      LruCache<std::string, std::vector<std::vector<storage::ObjectId>>>>>
      caches_;
  std::vector<Collector*> active_collectors_;
  /// Anytime scan-row allowance; 0 = unlimited.
  uint64_t row_allowance_ = 0;
  ExecutionStats stats_;
  /// Per-depth probe bindings, reused across outer rows (Eval runs once per
  /// outer row — rebuilding this vector there was a hot-loop allocation).
  std::vector<std::vector<exec::ColumnBinding>> binding_scratch_;
  /// Per-depth row copies for the disk backend (RowInto): a depth's view must
  /// stay valid while deeper steps recurse, so each depth owns its scratch.
  std::vector<storage::Tuple> row_scratch_;
};

/// Materializes the join prefix steps [0, depth] of `layout`'s plan into
/// `out` (one row of per-step base-table row ids per prefix match, serial
/// nested-loop order). `base` (nullable) is an already-materialized shallower
/// prefix of the same plan to stack on instead of re-enumerating its steps.
/// Returns false — with `out` truncated — when cancellation tripped or the
/// materialization exceeded `max_bytes`; callers must then discard `out` and
/// fall back to direct execution. Probe counters go to `stats` (nullable).
bool MaterializePrefixRows(const PlanLayout& layout, int depth,
                           const exec::ExecOptions& options,
                           const exec::MaterializedSubplan* base, size_t max_bytes,
                           ExecutionStats* stats, exec::MaterializedSubplan* out);

/// Runs all plans of a prepared query with the thread pool, collecting up to
/// per_network_k results per network (and optionally global_k in total). The
/// result list is byte-identical to a single-threaded run.
/// With options.enable_anytime and a cost budget or armed deadline, whole
/// plans the budget cannot afford are skipped (cheapest-first schedule order)
/// and `coverage` (nullable) reports the structured quality bound; with no
/// budget the knob is inert and results are byte-identical to the pre-anytime
/// engine.
/// With a non-null `sink`, finalized result prefixes stream out as size
/// classes exhaust (see engine/result_sink.h); the returned list is the same
/// either way.
class TopKExecutor {
 public:
  TopKExecutor() = default;

  Result<std::vector<present::Mtton>> Run(const PreparedQuery& query,
                                          const QueryOptions& options,
                                          ExecutionStats* stats = nullptr,
                                          Coverage* coverage = nullptr,
                                          ResultSink* sink = nullptr);
};

/// Evaluates a single-object network (no joins): intersects the occurrence's
/// keyword filter sets and emits each object. Shared by all executors.
/// `stats` (nullable) counts the intersection scan and emitted results.
void EvaluateSingleObjectPlan(
    const PreparedQuery& query, size_t plan_index,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit,
    ExecutionStats* stats = nullptr);

/// Final ranking of every executor: stable sort by (score, ctssn_index,
/// objects) — a total order on distinct values, so any execution order that
/// produces the correct result multiset sorts to byte-identical output.
void SortMttons(std::vector<present::Mtton>* results);

}  // namespace xk::engine

#endif  // XK_ENGINE_TOPK_EXECUTOR_H_
