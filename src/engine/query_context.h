// Copyright (c) the XKeyword authors.
//
// Shared query-stage types: options, prepared queries, execution statistics.

#ifndef XK_ENGINE_QUERY_CONTEXT_H_
#define XK_ENGINE_QUERY_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cn/candidate_network.h"
#include "cn/ctssn.h"
#include "common/cancel_token.h"
#include "exec/operators.h"
#include "opt/optimizer.h"
#include "storage/buffer_pool.h"

namespace xk::engine {

/// Ignored by the library; kept only because perfbench/xkbench.cc names it.
enum class KernelDispatch : uint8_t { kAuto = 0, kForceScalar = 1 };

/// Join strategy for full-result (QueryMode::kAll) runs.
enum class FullMode {
  /// Hash joins on indexed decompositions, INLJ otherwise — mirrors what the
  /// backing DBMS's optimizer would pick.
  kAuto,
  kIndexNestedLoop,
  kHashJoin,
};

/// Knobs of one keyword query.
struct QueryOptions {
  /// Maximum MTNN size Z (Section 3.1: "the user specifies the maximum size
  /// Z of an MTNN that is of interest").
  int max_size_z = 6;

  /// When > 0, executors skip networks whose CTSSN has more than this many
  /// edges — the "maximum CTSSN size" axis of Figures 15(b) and 16(a).
  int max_network_size = 0;

  /// Per-network result bound K for the top-k executor (Section 7 measures
  /// "the top-k results for each candidate network").
  size_t per_network_k = 10;
  /// Global result bound across all networks (0 = unlimited); the
  /// search-engine presentation stops once K results exist in total.
  size_t global_k = 0;

  /// Partial-result caching (the optimized execution algorithm of Section 6).
  bool enable_cache = true;
  /// Entries of the fixed-size cache; on overflow queries are re-sent.
  size_t cache_capacity = 1 << 16;

  /// Threads of the per-CN thread pool.
  int num_threads = 4;

  /// Semi-join keyword pruning: intersect each step's keyword filter sets and
  /// summarize the join columns later steps probe into Bloom filters, so
  /// probes bound to a value that cannot match skip the table entirely
  /// (counted in ProbeStats::bloom_skips). Never changes results.
  bool enable_semijoin_pruning = true;

  /// Plan-DAG shared-subplan memoization: join prefixes common to several
  /// candidate networks (equal optimizer prefix signatures) execute once per
  /// query; the materialized prefix rows are replayed by every consuming
  /// plan. Thread-safe (leader/follower) under the per-CN thread pool. Never
  /// changes results: replay order equals the serial nested-loop order.
  bool enable_subplan_reuse = true;
  /// Byte budget of the per-query subplan materialization cache; productions
  /// that would exceed it abort and their consumers fall back to direct
  /// execution. Fully-released entries are evicted first under pressure.
  size_t subplan_cache_budget_bytes = 64ull << 20;

  /// Cost-ordered candidate-network scheduling: inside each network-size
  /// class, run plans cheapest first by the cost model's output-cardinality
  /// estimate (shared-subplan producers are thereby hoisted before their
  /// consumers), so a global_k bound is reached earlier. Off = legacy order
  /// (size class, then plan index).
  bool cost_ordered_scheduling = true;

  /// Ignored by the library; kept only because perfbench/xkbench.cc names it.
  bool vectorized = true;

  /// Ignored by the library; kept only because perfbench/xkbench.cc names it.
  KernelDispatch kernel_dispatch = KernelDispatch::kAuto;

  /// Full-result mode (QueryMode::kAll) only: join strategy.
  FullMode full_mode = FullMode::kAuto;
  /// Full-result mode only: reuse keyword-filtered scans across networks
  /// (Section 4's common-subexpression reuse). The kAll prefix-intermediate
  /// memo additionally requires this (it stores indexes into the shared
  /// scans) on top of enable_subplan_reuse. Never changes results.
  bool enable_scan_reuse = true;

  /// Anytime execution: budget whole candidate networks against the
  /// remaining deadline (or against `anytime_cost_budget`) instead of letting
  /// a tripped deadline truncate mid-CN. The executor runs the cost-ordered
  /// schedule, skips CNs the budget cannot afford, and the response reports a
  /// structured quality bound (QueryResponse::coverage). With no deadline and
  /// no cost budget this knob is inert: results are byte-identical to the
  /// pre-anytime engine.
  bool enable_anytime = true;
  /// Deterministic anytime budget in cost-model units (the optimizer's
  /// estimated_cost): every admitted plan charges its estimate; a plan whose
  /// charge would exceed the budget is skipped whole (the first plan is
  /// always admitted). 0 = disabled. Unlike the wall-clock deadline this is
  /// reproducible, which the soundness/monotonicity tests rely on.
  double anytime_cost_budget = 0;
  /// Safety factor on the wall-clock admission estimate: a plan is admitted
  /// only if its predicted time, scaled by this factor, fits the remaining
  /// deadline. Larger = more conservative (more skips, fewer mid-plan
  /// deadline trips).
  double anytime_headroom = 1.25;
  /// Floor of the per-plan scan-row allowance derived from the remaining
  /// deadline in wall-clock anytime mode, so calibration noise can never
  /// starve a plan outright.
  uint64_t anytime_min_plan_rows = 4096;

  /// Cooperative cancellation/deadline token (not owned, may be null). The
  /// executors poll it at plan and probe granularity and return whatever
  /// results were complete when it tripped. Installed by
  /// XKeyword::Run / the serving layer; leave null for unbounded queries.
  const CancelToken* cancel = nullptr;

  /// Rejects option combinations that would silently misbehave (negative
  /// thread counts, a zero per-network bound, a zero subplan budget). Called by
  /// XKeyword::Prepare before any work happens.
  Status Validate() const {
    if (per_network_k == 0) {
      return Status::InvalidArgument("per_network_k must be >= 1");
    }
    if (num_threads < 0) {
      return Status::InvalidArgument("num_threads must be >= 0");
    }
    if (enable_subplan_reuse && subplan_cache_budget_bytes == 0) {
      return Status::InvalidArgument(
          "enable_subplan_reuse requires subplan_cache_budget_bytes > 0");
    }
    if (anytime_cost_budget < 0) {
      return Status::InvalidArgument("anytime_cost_budget must be >= 0");
    }
    if (anytime_headroom < 1.0) {
      return Status::InvalidArgument("anytime_headroom must be >= 1");
    }
    if (anytime_min_plan_rows == 0) {
      return Status::InvalidArgument("anytime_min_plan_rows must be >= 1");
    }
    return Status::OK();
  }
};

/// Structured quality bound of one executed query: how much of the candidate-
/// network space the answer covers. Sound by construction — the executors run
/// the plan-DAG schedule, which is nondecreasing in CN size class, so up to
/// the first deviation (a budget skip or a mid-plan interruption) execution is
/// byte-identical to an unbounded run; every class at or below
/// `exhausted_class` lies entirely inside that identical prefix.
struct Coverage {
  /// Candidate networks the executor ran (a per-network-k or global-k emit
  /// stop counts as complete: the answer needs nothing more from them; a plan
  /// stopped mid-flight also counts here, with `interrupted` set).
  uint32_t cns_executed = 0;
  /// Active candidate networks that never ran: skipped whole by the anytime
  /// budget, or never reached after a deadline/cancel stop.
  uint32_t cns_skipped = 0;
  /// Largest CN size class C such that every active plan of class <= C ran to
  /// completion; the result prefix with score <= C provably matches the
  /// unbounded run. -1 = no class fully exhausted.
  int exhausted_class = -1;
  /// True iff some plan stopped mid-execution (deadline, cancellation, or a
  /// row-budget trip) — its partial results may be present but incomplete.
  bool interrupted = false;
  /// True iff the wall-clock deadline, not the deterministic cost budget,
  /// cost the answer a network: deadline admission skipped a plan, or a plan
  /// was interrupted while deadline budgeting was on. The engine front-ends
  /// then report kDeadlineExceeded even when the query returned before the
  /// deadline itself passed.
  bool deadline_limited = false;

  bool complete() const { return cns_skipped == 0 && !interrupted; }
};

/// Aggregated execution counters, reported by the benches next to wall time.
struct ExecutionStats {
  exec::ProbeStats probes;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t results = 0;
  uint64_t reuse_hits = 0;
  uint64_t reuse_misses = 0;
  /// Rows streamed while building semi-join Bloom filters (one filtered scan
  /// per distinct step signature; kept apart from probe-time rows_scanned).
  uint64_t bloom_build_rows = 0;
  /// Plan-DAG shared-subplan cache (opt::SubplanCache): consumers served from
  /// a materialized prefix / leader productions / high-water cached bytes /
  /// prefix rows consumers replayed instead of recomputing.
  uint64_t subplan_hits = 0;
  uint64_t subplan_misses = 0;
  uint64_t subplan_bytes = 0;
  uint64_t dedup_saved_rows = 0;
  /// Disk backend (storage::BufferPool): buffer-pool page hits / misses and
  /// page-file bytes read on behalf of this query. All zero on the in-memory
  /// backend.
  uint64_t page_hits = 0;
  uint64_t page_misses = 0;
  uint64_t page_read_bytes = 0;

  void Add(const ExecutionStats& o) {
    probes.Add(o.probes);
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    results += o.results;
    reuse_hits += o.reuse_hits;
    reuse_misses += o.reuse_misses;
    bloom_build_rows += o.bloom_build_rows;
    subplan_hits += o.subplan_hits;
    subplan_misses += o.subplan_misses;
    subplan_bytes = std::max(subplan_bytes, o.subplan_bytes);
    dedup_saved_rows += o.dedup_saved_rows;
    page_hits += o.page_hits;
    page_misses += o.page_misses;
    page_read_bytes += o.page_read_bytes;
  }
};

/// Folds the calling thread's buffer-pool counters (accumulated since the
/// last drain) into `stats`. The engine calls this on every thread that
/// touched pages on behalf of a query — the query thread itself at the end of
/// XKeyword::Run, and each pool worker at its stats merge point — so disk
/// traffic is attributed to the query that caused it. A no-op (all-zero
/// drain) on the in-memory backend.
inline void DrainPageCounters(ExecutionStats* stats) {
  const storage::ThreadPageCounters c =
      storage::BufferPool::DrainThreadCounters();
  stats->page_hits += c.hits;
  stats->page_misses += c.misses;
  stats->page_read_bytes += c.read_bytes;
}

/// Everything derived from a keyword list before execution: candidate
/// networks, their CTSSN reductions, keyword filter sets, and plans.
/// Filter sets live in a std::map so the IdSet pointers inside plans stay
/// valid when the struct moves.
struct PreparedQuery {
  std::vector<std::string> keywords;
  std::vector<cn::CandidateNetwork> networks;
  std::vector<cn::Ctssn> ctssns;              // parallel to networks
  std::map<std::pair<int, schema::SchemaNodeId>, storage::IdSet> filter_sets;
  std::vector<opt::NodeFilters> node_filters;  // parallel to ctssns
  std::vector<opt::CtssnPlan> plans;           // parallel to ctssns
  exec::ExecOptions exec_options;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_QUERY_CONTEXT_H_
