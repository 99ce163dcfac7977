// Copyright (c) the XKeyword authors.
//
// The optimized execution algorithm of Section 6: nested-loops joins whose
// inner subtrees are memoized in a fixed-size cache keyed by their join
// bindings — "when evaluating CTSSN2 for t2, the innermost loop should not be
// executed since it will produce the same results as before". Disabling the
// cache yields the naive algorithm of DISCOVER/DBXplorer (naive_executor.h).
// PlanEvaluator is the engine's only index-nested-loop driver: the top-k
// executor below runs it with per_network_k, and the full executor
// (full_executor.h) runs it to completion on indexed decompositions.
//
// Parallelism is the paper's per-CN thread pool: "a thread is assigned to
// each CN starting from the smaller ones". Each plan fills its own result
// buffer and the buffers merge in schedule order, so the answer is
// byte-identical to a single-threaded run.
//
// Semi-join keyword pruning: per plan step, the keyword filter sets are
// intersected and the join columns later steps probe are summarized into
// Bloom filters, letting ForEachMatch reject dead-end partial assignments
// without touching the table. A filter is built only once the probes it
// would have pruned have cost as much as its build (BloomCache::Slot), in
// top-k and complete-result runs alike.

#ifndef XK_ENGINE_TOPK_EXECUTOR_H_
#define XK_ENGINE_TOPK_EXECUTOR_H_

#include <atomic>
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
/// slot lookup, so pool threads build filters for different keys at once.
class BloomCache {
 public:
  /// One (step signature, column) filter. PlanEvaluator builds it by the
  /// ski-rental rule: every unpruned probe into the step adds its cost
  /// to `rent`, and the plan whose probe lifts the shared rent to
  /// `build_cost` builds the filter for every plan of the query.
  struct Slot {
    const exec::JoinStep* step = nullptr;  // the first plan's; all are equal
    int column = 0;
    /// Estimated build cost in scanned-row units (the build's enumeration,
    /// plus exec::kPageMissCost per page it reads on a paged table).
    uint64_t build_cost = 0;
    std::atomic<uint64_t> rent{0};
    std::once_flag built;
    std::unique_ptr<storage::BloomFilter> filter;
    std::atomic<bool> ready{false};  // release-stored once `filter` is set

    /// The filter once some plan built it, else null.
    const storage::BloomFilter* Ready() const {
      return ready.load(std::memory_order_acquire) ? filter.get() : nullptr;
    }
  };

  /// `use_indexes` is the query's ExecOptions::use_indexes: on, a build scan
  /// may run as a keyword seek; off, it never touches an index.
  explicit BloomCache(bool use_indexes) : use_indexes_(use_indexes) {}

  /// The slot of (signature, column), created with its build cost on first
  /// use.
  Slot* Find(const exec::JoinStep& step, const std::string& signature,
             int column);

  /// The filter over the slot's column values among rows of its table
  /// passing the step's local filters, sized for those rows; built by the
  /// first caller. `build_stats` (nullable) receives the build scan's rows.
  const storage::BloomFilter* Build(Slot* slot, ExecutionStats* build_stats);

 private:
  const bool use_indexes_;
  std::mutex mutex_;  // guards the map; map nodes never move
  std::map<std::string, Slot> slots_;
};

/// Immutable per-plan precomputation: step dependencies, occurrence bindings,
/// same-segment groups, plus the semi-join structures — per-step keyword
/// filters intersected down to one set per column, and per step the
/// BloomCache slots of the join columns it is probed on. No filter is built
/// here.
class PlanLayout {
 public:
  /// `bloom_cache` may be null (no semi-join pruning).
  PlanLayout(const opt::CtssnPlan* plan, BloomCache* bloom_cache);

  const opt::CtssnPlan& plan() const { return *plan_; }

 private:
  friend class PlanEvaluator;

  const opt::CtssnPlan* plan_;
  BloomCache* bloom_cache_;
  // Per step i: deps (earlier columns read by steps >= i), CTSSN nodes first
  // bound at step i, and nodes bound at steps >= i.
  std::vector<std::vector<exec::ColumnRef>> deps_;
  std::vector<std::vector<std::pair<int, int>>> nodes_at_;  // (ctssn node, col)
  std::vector<std::vector<int>> suffix_nodes_;
  /// SameSegmentGroups of the plan's CTSSN.
  std::vector<std::vector<int>> same_segment_groups_;
  std::vector<std::vector<exec::ColumnInSet>> step_filters_;
  std::deque<storage::IdSet> owned_sets_;  // stable storage for intersections
  std::vector<std::vector<BloomCache::Slot*>> prune_slots_;
};

/// Evaluates one CTSSN plan by depth-first nested loops with optional suffix
/// memoization: a level's cache entry holds every completion of the
/// occurrences bound at that level or deeper, flat. Not thread-safe: a plan runs on one pool thread, which must
/// be the thread that calls Run (probe costs read its page counters).
///
/// Semi-join filters another plan already built are adopted at
/// construction. Each unpruned probe into a step with unbuilt filters pays
/// rent: kSeekLookupCost plus the rows it scanned plus kPageMissCost per
/// page it missed, counting only the probe itself, not the deeper steps it
/// recursed into. Once a slot's shared rent reaches its build cost this
/// evaluator builds the filter (or adopts it, if another plan won the race)
/// and prunes with it from then on.
class PlanEvaluator {
 public:
  PlanEvaluator(const PlanLayout* layout, exec::ExecOptions exec_options,
                bool enable_cache, size_t cache_capacity);

  /// Runs to completion or until `emit` declines.
  /// `emit` receives the objects per CTSSN occurrence.
  void Run(const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);

  const ExecutionStats& stats() const { return stats_; }

  /// Objects one suffix enumeration may collect for the cache; past it the
  /// enumeration goes on but is not cached, so a huge complete-result
  /// enumeration cannot balloon memory.
  static constexpr size_t kMaxCollectedObjects = size_t{1} << 20;

 private:
  /// The completions of one level's suffix: `count` rows of
  /// `suffix_nodes_[level].size()` objects each, row-major in `objects`
  /// (empty for a zero-width suffix, whose rows carry only their count).
  struct Completions {
    size_t count = 0;
    std::vector<storage::ObjectId> objects;
  };
  struct Collector {
    size_t level;
    bool overflowed = false;  // passed kMaxCollectedObjects: not cached
    Completions completions;
  };

  bool Eval(size_t i, std::vector<storage::TupleView>* rows,
            std::vector<storage::ObjectId>* objs,
            const std::function<bool(const std::vector<storage::ObjectId>&)>& emit);
  void ProjectToCollectors(const std::vector<storage::ObjectId>& objs);
  std::string CacheKey(size_t i, const std::vector<storage::TupleView>& rows) const;
  /// Rows this evaluator scanned plus kPageMissCost per page miss of this
  /// thread: differences of two readings are a probe's cost.
  uint64_t Work() const;
  /// Adds `cost` to the rent of step `i`'s unbuilt slots and builds each
  /// slot whose rent reached its build cost.
  void PayRent(size_t i, uint64_t cost);

  const PlanLayout* layout_;
  const opt::CtssnPlan* plan_;
  exec::ExecOptions exec_options_;
  bool enable_cache_;

  // One cache per step level (level 0 has no dependencies, never cached).
  std::vector<std::unique_ptr<LruCache<std::string, Completions>>> caches_;
  std::vector<Collector*> active_collectors_;
  ExecutionStats stats_;
  /// Per-depth probe bindings, reused across outer rows (Eval runs once per
  /// outer row — rebuilding this vector there was a hot-loop allocation).
  std::vector<std::vector<exec::ColumnBinding>> binding_scratch_;
  /// Per-depth row copies for the disk backend (RowInto): a depth's view must
  /// stay valid while deeper steps recurse, so each depth owns its scratch.
  std::vector<storage::Tuple> row_scratch_;
  /// Per step: the prune filters the probes use, and the slots whose
  /// filters are not built yet (they pay rent).
  std::vector<std::vector<exec::ColumnBloom>> step_blooms_;
  std::vector<std::vector<BloomCache::Slot*>> unbuilt_;
  const storage::ThreadPageCounters* page_counters_ = nullptr;  // set by Run
};

/// Runs all plans of a prepared query with the thread pool, collecting up to
/// per_network_k results per network (and optionally global_k in total). The
/// result list is byte-identical to a single-threaded run.
/// With a cost budget, whole plans the budget cannot afford are skipped
/// (opt::PlanSchedule order); a deadline or cancel truncates the schedule
/// where it trips. `coverage` (nullable) reports the structured quality
/// bound either way.
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

/// Occurrence groups of `ctssn` that share a segment (only groups of size
/// >= 2). MTNNs are trees of distinct nodes, so the occurrences of one group
/// must bind distinct objects.
std::vector<std::vector<int>> SameSegmentGroups(const cn::Ctssn& ctssn);

/// Whether `objs` (an object per CTSSN occurrence) binds distinct objects
/// inside every group of `groups`. Checked per full assignment: cached
/// suffixes cannot pre-check against future prefixes.
bool DistinctAcross(const std::vector<std::vector<int>>& groups,
                    const std::vector<storage::ObjectId>& objs);

/// Final ranking of the top-k executors: stable sort by (score, ctssn_index,
/// objects) — a total order on distinct values, so any execution order that
/// produces the correct result multiset sorts to byte-identical output. The
/// full executor produces the same order plan by plan.
void SortMttons(std::vector<present::Mtton>* results);

}  // namespace xk::engine

#endif  // XK_ENGINE_TOPK_EXECUTOR_H_
