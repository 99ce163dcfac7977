#include "engine/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/full_executor.h"
#include "engine/progress_budget.h"
#include "engine/thread_pool.h"
#include "engine/topk_executor.h"
#include "opt/plan_dag.h"
#include "opt/reuse.h"

namespace xk::engine {

namespace {

/// Contiguous [begin, end) slice-index groups: `groups` (clamped to
/// num_slices) ranges of nearly equal size, in slice order. Slice ranges are
/// themselves contiguous ascending ID ranges, so each group owns one
/// contiguous ID range too.
std::vector<std::pair<size_t, size_t>> SliceGroups(size_t num_slices,
                                                   int groups) {
  const size_t g =
      std::min<size_t>(std::max(groups, 1), num_slices == 0 ? 1 : num_slices);
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(g);
  const size_t base = num_slices / g;
  const size_t rem = num_slices % g;
  size_t begin = 0;
  for (size_t i = 0; i < g; ++i) {
    const size_t len = base + (i < rem ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

/// The global k-th-position watermark one plan's scatter tasks share.
/// Positions are step-0 driver row ids of the global relation: globally
/// unique per driver row, owned by exactly one shard task, and evaluated in
/// ascending order within each task — so the serial result order is exactly
/// (position, emission order within the row). Every published result pushes
/// its position (with multiplicity); the bound is the k-th smallest published
/// position once k results exist. Published results are a subset of the
/// plan's full result stream, so the bound only ever overestimates the final
/// k-th position: a row at position >= bound already has `limit` results
/// strictly preceding it in serial order and can never reach the top k.
class ShardBoundWatermark {
 public:
  explicit ShardBoundWatermark(size_t limit) : limit_(limit) {}

  void Publish(uint64_t position) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (heap_.size() < limit_) {
      heap_.push_back(position);
      std::push_heap(heap_.begin(), heap_.end());
      if (heap_.size() == limit_) {
        bound_.store(heap_.front(), std::memory_order_release);
      }
    } else if (position < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = position;
      std::push_heap(heap_.begin(), heap_.end());
      bound_.store(heap_.front(), std::memory_order_release);
    }
  }

  /// Whether a result at `position` can no longer enter the top `limit`.
  bool Prunes(uint64_t position) const {
    return position >= bound_.load(std::memory_order_acquire);
  }

 private:
  const size_t limit_;
  std::mutex mutex_;
  std::vector<uint64_t> heap_;  // max-heap of the `limit_` smallest positions
  std::atomic<uint64_t> bound_{std::numeric_limits<uint64_t>::max()};
};

/// One scatter task's output: position-tagged results plus local counters.
struct ShardTaskOut {
  std::vector<std::pair<storage::RowId, std::vector<storage::ObjectId>>> rows;
  ExecutionStats stats;
  uint64_t prunes = 0;       // driver rows skipped via the watermark
  bool early_stop = false;   // stopped before exhausting the driver slice
  /// Distinguishes a deadline/cancel/row-gate stop (the task's results are
  /// incomplete) from the benign early stops above (local cap or watermark
  /// prune — subsets the serial run discards anyway).
  bool interrupted = false;
};

/// Evaluates one plan's continuations for the driver rows owned by the slice
/// group [group.first, group.second), tagging each result with its global
/// driver-row position. Stops early on the local result cap, on the pushed-
/// down watermark, or on cancellation.
void RunShardTask(const std::vector<std::unique_ptr<ShardLocalEngine>>& shards,
                  std::pair<size_t, size_t> group, const PlanLayout& layout,
                  const QueryOptions& options,
                  const exec::ExecOptions& exec_options, size_t limit,
                  bool pushdown, ShardBoundWatermark* watermark, RowGate* gate,
                  ShardTaskOut* out) {
  // This group's driver rows, ascending in global row coordinates. Each
  // member list is ascending, but members interleave in row order when the
  // table is not clustered on the anchor, so a multi-member union re-sorts
  // (row ids are unique across members — ranges are disjoint).
  std::vector<storage::RowId> driver;
  for (size_t s = group.first; s < group.second; ++s) {
    std::vector<storage::RowId> part =
        shards[s]->DriverMatches(layout, exec_options, &out->stats);
    if (driver.empty()) {
      driver = std::move(part);
    } else {
      driver.insert(driver.end(), part.begin(), part.end());
    }
  }
  if (group.second - group.first > 1) std::sort(driver.begin(), driver.end());

  const CancelToken* cancel = exec_options.cancel;
  PlanEvaluator evaluator(&layout, exec_options, options.enable_cache,
                          options.cache_capacity);
  evaluator.set_row_gate(gate);  // shared across this plan's shard tasks
  size_t taken = 0;
  evaluator.RunDriverRows(
      driver,
      [&](size_t i) {
        if (cancel != nullptr && cancel->StopRequested()) {
          out->early_stop = true;
          out->interrupted = true;
          return false;
        }
        if (taken >= limit) {
          out->early_stop = true;
          return false;
        }
        if (pushdown && watermark->Prunes(driver[i])) {
          out->prunes = driver.size() - i;
          out->early_stop = true;
          return false;
        }
        return true;
      },
      [&](size_t i, const std::vector<storage::ObjectId>& objs) {
        out->rows.emplace_back(driver[i], objs);
        ++taken;
        if (pushdown) watermark->Publish(driver[i]);
        if (taken >= limit || (pushdown && watermark->Prunes(driver[i]))) {
          if (i + 1 < driver.size()) {
            if (taken < limit) out->prunes = driver.size() - i - 1;
            out->early_stop = true;
          }
          return false;
        }
        return true;
      });
  out->stats.Add(evaluator.stats());
  // Attribute this scatter-pool thread's buffer-pool traffic to the task's
  // stats, which the gather stage merges into the response.
  DrainPageCounters(&out->stats);
  // A cancel or dry row gate can also unwind inside the evaluator, where the
  // gate lambda never sees it.
  if ((cancel != nullptr && cancel->StopRequested()) ||
      (gate != nullptr && gate->Exhausted())) {
    out->interrupted = true;
  }
}

}  // namespace

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Load(
    const xml::XmlGraph* graph, const schema::SchemaGraph* schema,
    const schema::TssGraph* tss, ShardedEngineOptions options) {
  XK_ASSIGN_OR_RETURN(std::unique_ptr<XKeyword> inner,
                      XKeyword::Load(graph, schema, tss, options.storage));
  const storage::ObjectId num_objects = inner->data().objects.NumObjects();
  storage::ObjectId slices = std::max(options.num_slices, 1);
  slices = std::max<storage::ObjectId>(
      1, std::min<storage::ObjectId>(slices, num_objects));

  std::vector<std::unique_ptr<ShardLocalEngine>> shards;
  std::vector<SlicedShard*> sliced;
  if (slices == 1) {
    shards.push_back(std::make_unique<WholeInstanceShard>(&inner->data()));
  } else {
    const storage::ObjectId base = num_objects / slices;
    const storage::ObjectId rem = num_objects % slices;
    storage::ObjectId begin = 0;
    for (storage::ObjectId s = 0; s < slices; ++s) {
      const storage::ObjectId len = base + (s < rem ? 1 : 0);
      auto shard = std::make_unique<SlicedShard>(
          &inner->data(), ShardRange{begin, begin + len});
      begin += len;
      sliced.push_back(shard.get());
      shards.push_back(std::move(shard));
    }
    XK_CHECK_EQ(begin, num_objects);
    // Slice any tables that predate the shards (none through the regular load
    // stage today — connection relations only appear with decompositions —
    // but a future bulk-load path must not silently skip them).
    for (const std::string& name : inner->catalog().TableNames()) {
      XK_ASSIGN_OR_RETURN(const storage::Table* table,
                          inner->catalog().GetTable(name));
      for (SlicedShard* shard : sliced) {
        XK_RETURN_NOT_OK(shard->AddTableSlice(table));
      }
    }
  }
  return std::unique_ptr<ShardedEngine>(new ShardedEngine(
      std::move(inner), std::move(shards), std::move(sliced)));
}

Status ShardedEngine::AddDecomposition(decomp::Decomposition d) {
  std::vector<std::string> before = inner_->catalog().TableNames();
  std::unordered_set<std::string> had(before.begin(), before.end());
  XK_RETURN_NOT_OK(inner_->AddDecomposition(std::move(d)));
  for (const std::string& name : inner_->catalog().TableNames()) {
    if (had.contains(name)) continue;
    XK_ASSIGN_OR_RETURN(const storage::Table* table,
                        inner_->catalog().GetTable(name));
    for (SlicedShard* shard : sliced_) {
      XK_RETURN_NOT_OK(shard->AddTableSlice(table));
    }
  }
  return Status::OK();
}

size_t ShardedEngine::ShardMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->MemoryBytes();
  return bytes;
}

Result<QueryResponse> ShardedEngine::Run(const QueryRequest& request,
                                         CancelToken* token,
                                         ResultSink* sink) const {
  // Degenerate cases run the inner engine unchanged: a single shard group is
  // by definition the whole instance, and the naive executor exists to model
  // the unoptimized baseline, which sharding would misrepresent.
  if (request.options.num_shards <= 1 || request.mode == QueryMode::kNaive) {
    return inner_->Run(request, token, sink);
  }
  // The scattered paths merge per-shard streams in the gather stage and
  // cannot prove finalized prefixes mid-flight; the sink stays unused and
  // the whole answer rides the response.
  (void)sink;

  CancelToken local_token;
  CancelToken* tok = token != nullptr ? token : &local_token;
  if (request.deadline.count() > 0 && !tok->has_deadline()) {
    tok->SetDeadlineAfter(request.deadline);
  }

  QueryOptions options = request.options;
  options.cancel = tok;
  // Zero the coordinator thread's page counters so the post-run drain below
  // attributes only this query's disk traffic (Prepare included).
  (void)storage::BufferPool::DrainThreadCounters();
  Result<PreparedQuery> prepared =
      inner_->Prepare(request.keywords, request.decomposition, options);
  if (!prepared.ok() && !IsStopStatus(prepared.status())) {
    return prepared.status();
  }
  if (!prepared.ok() || tok->StopRequested()) {
    // The budget ran out during preparation: nothing was covered at all.
    return StoppedBeforeExecution(*tok, prepared.ok() ? prepared->plans.size() : 0);
  }
  PreparedQuery q = prepared.MoveValueUnsafe();

  QueryResponse response;
  const int groups =
      std::min<int>(options.num_shards, static_cast<int>(shards_.size()));
  switch (request.mode) {
    case QueryMode::kTopK:
      RunShardedTopK(q, options, groups, &response);
      break;
    case QueryMode::kAll:
      RunShardedAll(q, options, groups, &response);
      break;
    case QueryMode::kNaive:
      XK_CHECK(false);  // delegated above
      break;
  }
  // Gather-coordinator disk traffic (scatter workers drained into their task
  // stats already).
  DrainPageCounters(&response.stats);
  if (tok->StopRequested()) {
    response.status = tok->ToStatus();
    // Conservative: the trip may have landed after the coordinator's last
    // poll — never report kComplete alongside a non-OK status.
    response.coverage.interrupted = true;
  } else if (response.coverage.deadline_limited) {
    // Deadline admission skipped networks the remaining time could not
    // afford: degraded by the wall clock, not by the deterministic budget.
    response.status = Status::DeadlineExceeded(
        "query deadline exceeded: networks skipped to meet it");
  }
  response.completeness =
      DeriveCompleteness(response.coverage, !response.mttons.empty());
  return response;
}

void ShardedEngine::RunShardedTopK(const PreparedQuery& query,
                                   const QueryOptions& options, int groups,
                                   QueryResponse* response) const {
  std::vector<present::Mtton> results;
  std::vector<ExecutionStats> per_plan_stats(query.plans.size());
  BloomCache bloom_cache;
  BloomCache* bloom_cache_ptr =
      options.enable_semijoin_pruning ? &bloom_cache : nullptr;

  const CancelToken* cancel = options.cancel;
  exec::ExecOptions exec_options = query.exec_options;
  exec_options.cancel = cancel;
  exec_options.vectorized = options.vectorized;
  exec_options.force_scalar_kernels =
      options.kernel_dispatch == KernelDispatch::kForceScalar;

  auto skip_plan = [&](size_t p) {
    return options.max_network_size > 0 &&
           query.ctssns[p].tree.size() > options.max_network_size;
  };
  auto stop_requested = [&] {
    return cancel != nullptr && cancel->StopRequested();
  };

  // Same plan-DAG schedule as the single-engine executor — the order plans
  // consume the global_k budget in is part of the output contract. Subplan
  // memoization itself is not used here (it never changes results; the
  // scatter stage replays driver rows instead).
  std::vector<bool> active(query.plans.size());
  for (size_t p = 0; p < query.plans.size(); ++p) active[p] = !skip_plan(p);
  opt::PlanDagOptions dag_options;
  dag_options.cost_ordered = options.cost_ordered_scheduling;
  dag_options.share_subplans = options.enable_subplan_reuse;
  const opt::PlanDag dag = opt::BuildPlanDag(query.plans, active, dag_options);

  // Anytime budget: admission runs on the gather coordinator in schedule
  // order — serially, exactly like the single-engine executor — so the
  // admitted plan set (and thus the coverage bound) matches num_shards = 1.
  // In wall-clock mode the per-plan row allowance is one gate shared by the
  // plan's shard tasks.
  ProgressBudget budget(query, active, options);
  budget.PreAdmit(dag.schedule);

  const std::vector<std::pair<size_t, size_t>> slice_groups =
      SliceGroups(shards_.size(), groups);
  const int pool_threads = options.shard_parallelism > 0
                               ? options.shard_parallelism
                               : static_cast<int>(slice_groups.size());
  std::unique_ptr<ThreadPool> pool;

  for (size_t p : dag.schedule) {
    if (stop_requested()) break;  // unvisited plans stay "skipped"
    if (skip_plan(p)) continue;
    if (options.global_k != 0 && results.size() >= options.global_k) {
      budget.MarkUnreachedComplete();
      break;
    }
    if (!budget.AdmitPlan(p)) continue;  // skip whole CN, try the next
    Stopwatch plan_timer;
    const uint64_t rows_before = per_plan_stats[p].probes.rows_scanned;
    auto rows_scanned = [&] {
      return per_plan_stats[p].probes.rows_scanned - rows_before;
    };
    auto elapsed_ns = [&] {
      return static_cast<uint64_t>(plan_timer.ElapsedMicros()) * 1000;
    };
    const size_t limit = PlanResultCap(options, results.size());
    const int score = query.ctssns[p].cn_size;

    if (query.plans[p].query.steps.empty()) {
      // Single-object networks intersect global posting lists — trivial work
      // with no join fan-out, evaluated on the gather coordinator.
      size_t taken = 0;
      EvaluateSingleObjectPlan(
          query, p,
          [&](const std::vector<storage::ObjectId>& objs) {
            results.push_back(
                present::Mtton{static_cast<int>(p), objs, score});
            return ++taken < limit;
          },
          &per_plan_stats[p]);
      budget.OnPlanComplete(p, rows_scanned(), elapsed_ns());
      continue;
    }

    PlanLayout layout(&query.plans[p], options.enable_semijoin_pruning,
                      bloom_cache_ptr, &per_plan_stats[p]);
    ShardBoundWatermark watermark(limit);
    std::shared_ptr<RowGate> gate = budget.MakeRowGate();
    std::vector<ShardTaskOut> outs(slice_groups.size());
    if (slice_groups.size() == 1) {
      RunShardTask(shards_, slice_groups[0], layout, options, exec_options,
                   limit, options.shard_bound_pushdown, &watermark, gate.get(),
                   &outs[0]);
    } else {
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(pool_threads);
      for (size_t g = 0; g < slice_groups.size(); ++g) {
        pool->Submit([&, g] {
          RunShardTask(shards_, slice_groups[g], layout, options, exec_options,
                       limit, options.shard_bound_pushdown, &watermark,
                       gate.get(), &outs[g]);
        });
      }
      pool->WaitIdle();
    }

    // Gather: ascending global driver position reconstructs the serial
    // enumeration order (stable sort — results of one position live in one
    // task and stay in emission order); the first `limit` results are the
    // serial prefix the single engine would keep.
    per_plan_stats[p].shard_fanout += slice_groups.size();
    bool interrupted = false;
    size_t total = 0;
    for (const ShardTaskOut& o : outs) total += o.rows.size();
    std::vector<std::pair<storage::RowId, std::vector<storage::ObjectId>>>
        collected;
    collected.reserve(total);
    for (ShardTaskOut& o : outs) {
      for (auto& row : o.rows) collected.push_back(std::move(row));
      per_plan_stats[p].Add(o.stats);
      per_plan_stats[p].shard_bound_prunes += o.prunes;
      if (o.early_stop) ++per_plan_stats[p].shard_early_stops;
      if (o.interrupted) interrupted = true;
    }
    std::stable_sort(collected.begin(), collected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const size_t take = std::min(limit, collected.size());
    for (size_t i = 0; i < take; ++i) {
      results.push_back(present::Mtton{static_cast<int>(p),
                                       std::move(collected[i].second), score});
    }
    // The plan is only as complete as its weakest shard task.
    if (interrupted || stop_requested()) {
      budget.OnPlanInterrupted(p);
    } else {
      budget.OnPlanComplete(p, rows_scanned(), elapsed_ns());
    }
  }

  SortMttons(&results);
  if (options.global_k != 0 && results.size() > options.global_k) {
    results.resize(options.global_k);
  }
  for (const ExecutionStats& s : per_plan_stats) response->stats.Add(s);
  response->stats.results = results.size();
  response->stats.simd_isa = static_cast<uint32_t>(
      simd::KernelLevel(exec_options.force_scalar_kernels));
  response->mttons = std::move(results);
  response->coverage = budget.Finish();
}

void ShardedEngine::RunShardedAll(const PreparedQuery& query,
                                  const QueryOptions& options, int groups,
                                  QueryResponse* response) const {
  std::vector<present::Mtton> results;
  ExecutionStats* stats = &response->stats;
  const CancelToken* cancel = options.cancel;
  exec::ExecOptions exec_options = query.exec_options;
  exec_options.cancel = cancel;

  auto stop_requested = [&] {
    return cancel != nullptr && cancel->StopRequested();
  };

  // Outcome ledger only, like FullExecutor: kAll is never budgeted, but a
  // deadline/cancel trip still yields an honest coverage report.
  std::vector<bool> active(query.plans.size(), false);
  for (size_t p = 0; p < query.plans.size(); ++p) {
    active[p] = options.max_network_size <= 0 ||
                query.ctssns[p].tree.size() <=
                    static_cast<size_t>(options.max_network_size);
  }
  QueryOptions ledger_options = options;
  ledger_options.enable_anytime = false;
  ProgressBudget ledger(query, active, ledger_options);

  // Keyword-filtered scans of the probe steps (>= 1) are whole-instance state
  // shared by every shard task, computed once per distinct step signature
  // (scan reuse is always on here — the cache also keeps the scans alive for
  // the tasks). Step 0 is shard-private: each task scans the slice rows it
  // owns, so the task outputs partition the full result multiset, and the
  // final total-order sort makes the union byte-identical to the single
  // engine. Always a hash join: the INLJ path enumerates the same multiset
  // in a different order, which the sort erases anyway.
  opt::MaterializedViewCache view_cache;
  const std::vector<std::pair<size_t, size_t>> slice_groups =
      SliceGroups(shards_.size(), groups);
  const int pool_threads = options.shard_parallelism > 0
                               ? options.shard_parallelism
                               : static_cast<int>(slice_groups.size());
  std::unique_ptr<ThreadPool> pool;

  for (size_t p = 0; p < query.plans.size(); ++p) {
    if (stop_requested()) break;  // unvisited plans stay "skipped"
    const opt::CtssnPlan& plan = query.plans[p];
    if (!active[p]) continue;
    const int score = query.ctssns[p].cn_size;

    if (plan.query.steps.empty()) {
      EvaluateSingleObjectPlan(
          query, p,
          [&](const std::vector<storage::ObjectId>& objs) {
            results.push_back(
                present::Mtton{static_cast<int>(p), objs, score});
            return true;
          },
          stats);
      ledger.OnPlanComplete(p, 0, 0);
      continue;
    }

    const size_t num_steps = plan.query.steps.size();
    std::vector<const std::vector<storage::Tuple>*> shared(num_steps, nullptr);
    for (size_t i = 1; i < num_steps; ++i) {
      const std::string& sig = plan.step_signatures[i];
      const std::vector<storage::Tuple>* scan = view_cache.Get(sig);
      if (scan == nullptr) {
        scan = view_cache.Put(
            sig, FilteredScanTuples(*plan.query.steps[i].table,
                                    plan.query.steps[i], stats));
      }
      shared[i] = scan;
    }

    std::vector<std::vector<present::Mtton>> outs(slice_groups.size());
    std::vector<ExecutionStats> task_stats(slice_groups.size());
    auto task = [&, p, score](size_t g) {
      std::vector<storage::Tuple> anchor;
      for (size_t s = slice_groups[g].first; s < slice_groups[g].second; ++s) {
        std::vector<storage::Tuple> part =
            shards_[s]->AnchorScan(plan.query.steps[0], &task_stats[g]);
        if (anchor.empty()) {
          anchor = std::move(part);
        } else {
          anchor.insert(anchor.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
        }
      }
      std::vector<const std::vector<storage::Tuple>*> scans = shared;
      scans[0] = &anchor;
      RunHashJoinOnScans(plan, scans, exec_options, &task_stats[g],
                         [&](const std::vector<storage::ObjectId>& objs) {
                           outs[g].push_back(present::Mtton{
                               static_cast<int>(p), objs, score});
                           return true;
                         });
      DrainPageCounters(&task_stats[g]);
    };
    if (slice_groups.size() == 1) {
      task(0);
    } else {
      if (pool == nullptr) pool = std::make_unique<ThreadPool>(pool_threads);
      for (size_t g = 0; g < slice_groups.size(); ++g) {
        pool->Submit([&task, g] { task(g); });
      }
      pool->WaitIdle();
    }

    stats->shard_fanout += slice_groups.size();
    for (size_t g = 0; g < slice_groups.size(); ++g) {
      stats->Add(task_stats[g]);
      results.insert(results.end(),
                     std::make_move_iterator(outs[g].begin()),
                     std::make_move_iterator(outs[g].end()));
    }
    // A stop observed right after the scatter may have landed mid-task:
    // report the plan as interrupted, never as complete.
    if (stop_requested()) {
      ledger.OnPlanInterrupted(p);
    } else {
      ledger.OnPlanComplete(p, 0, 0);
    }
  }

  SortMttons(&results);
  stats->results = results.size();
  stats->simd_isa = static_cast<uint32_t>(
      simd::KernelLevel(exec_options.force_scalar_kernels));
  stats->reuse_hits += view_cache.hits();
  stats->reuse_misses += view_cache.misses();
  response->mttons = std::move(results);
  response->coverage = ledger.Finish();
}

}  // namespace xk::engine
