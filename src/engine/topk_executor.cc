#include "engine/topk_executor.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/logging.h"
#include "engine/progress_budget.h"
#include "engine/thread_pool.h"
#include "exec/access_path.h"
#include "storage/table.h"

namespace xk::engine {

// --- BloomCache ----------------------------------------------------------

namespace {

/// Estimated cost of building a filter for `step`, in scanned-row units: the
/// build's enumeration as the probe path would run it (every row, or a
/// keyword seek's lookups and candidates on an in-memory table), plus
/// kPageMissCost per page of it on a paged table.
uint64_t BuildCost(const exec::JoinStep& step, bool use_indexes) {
  const storage::Table& table = *step.table;
  const exec::ExecOptions options{.use_indexes = use_indexes};
  exec::CandidateCursor cursor;
  cursor.Init(exec::ChoosePath(table, step.const_filters, options), table,
              step.const_filters, step.in_filters, options);
  uint64_t cost = cursor.Cost();
  if (table.IsPaged()) {
    const uint64_t rows_per_page = table.RowsPerPage();
    cost += exec::kPageMissCost *
            ((cursor.Remaining() + rows_per_page - 1) / rows_per_page);
  }
  return cost;
}

}  // namespace

BloomCache::Slot* BloomCache::Find(const exec::JoinStep& step,
                                   const std::string& signature, int column) {
  std::string key = signature;
  key.push_back('#');
  key += std::to_string(column);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = slots_.try_emplace(std::move(key));
  Slot* slot = &it->second;
  if (inserted) {
    slot->step = &step;
    slot->column = column;
    slot->build_cost = BuildCost(step, use_indexes_);
  }
  return slot;
}

const storage::BloomFilter* BloomCache::Build(Slot* slot,
                                              ExecutionStats* build_stats) {
  std::call_once(slot->built, [&] {
    const exec::JoinStep& step = *slot->step;
    // The filter is sized for the rows that pass: every row when the step
    // has no local filter, else the values collected by the scan. The scan
    // is cancel-free: a filter built from a truncated scan would wrongly
    // prune.
    const exec::ExecOptions scan_options{.use_indexes = use_indexes_};
    const bool every_row_passes =
        step.const_filters.empty() && step.in_filters.empty();
    if (every_row_passes) {
      slot->filter = std::make_unique<storage::BloomFilter>(step.table->NumRows());
    }
    std::vector<storage::ObjectId> values;
    exec::ProbeStats scan_stats;
    // One pin per page run on a paged table, not one per row.
    storage::TableReadCursor cursor(*step.table);
    exec::ForEachMatch(*step.table, step.const_filters, step.in_filters,
                       scan_options,
                       [&](storage::RowId r) {
                         const storage::ObjectId v = cursor.At(r, slot->column);
                         if (every_row_passes) {
                           slot->filter->Add(v);
                         } else {
                           values.push_back(v);
                         }
                         return true;
                       },
                       &scan_stats);
    if (!every_row_passes) {
      slot->filter = std::make_unique<storage::BloomFilter>(values.size());
      for (storage::ObjectId v : values) slot->filter->Add(v);
    }
    if (build_stats != nullptr) {
      build_stats->bloom_build_rows += scan_stats.rows_scanned;
    }
    slot->ready.store(true, std::memory_order_release);
  });
  return slot->filter.get();
}

// --- PlanLayout ----------------------------------------------------------

std::vector<std::vector<int>> SameSegmentGroups(const cn::Ctssn& ctssn) {
  std::map<schema::TssId, std::vector<int>> by_segment;
  for (int v = 0; v < ctssn.num_nodes(); ++v) {
    by_segment[ctssn.tree.nodes[static_cast<size_t>(v)]].push_back(v);
  }
  std::vector<std::vector<int>> groups;
  for (auto& [seg, occs] : by_segment) {
    (void)seg;
    if (occs.size() >= 2) groups.push_back(std::move(occs));
  }
  return groups;
}

bool DistinctAcross(const std::vector<std::vector<int>>& groups,
                    const std::vector<storage::ObjectId>& objs) {
  for (const std::vector<int>& group : groups) {
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        if (objs[static_cast<size_t>(group[a])] ==
            objs[static_cast<size_t>(group[b])]) {
          return false;
        }
      }
    }
  }
  return true;
}

PlanLayout::PlanLayout(const opt::CtssnPlan* plan, BloomCache* bloom_cache)
    : plan_(plan), bloom_cache_(bloom_cache) {
  XK_CHECK(plan != nullptr);
  const size_t num_steps = plan->query.steps.size();
  const size_t num_nodes = plan->node_source.size();

  deps_.resize(num_steps);
  nodes_at_.resize(num_steps);
  suffix_nodes_.resize(num_steps);
  step_filters_.resize(num_steps);
  prune_slots_.resize(num_steps);

  for (size_t i = 0; i < num_steps; ++i) {
    // Dependencies: earlier-step columns referenced by steps >= i.
    std::vector<exec::ColumnRef> deps;
    for (size_t j = i; j < num_steps; ++j) {
      for (const auto& [col, ref] : plan->query.steps[j].eq) {
        (void)col;
        if (static_cast<size_t>(ref.step) < i) deps.push_back(ref);
      }
    }
    std::sort(deps.begin(), deps.end(), [](const exec::ColumnRef& a,
                                           const exec::ColumnRef& b) {
      return std::tie(a.step, a.column) < std::tie(b.step, b.column);
    });
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    deps_[i] = std::move(deps);

    for (size_t node = 0; node < num_nodes; ++node) {
      const exec::ColumnRef& src = plan->node_source[node];
      if (src.step == static_cast<int>(i)) {
        nodes_at_[i].push_back({static_cast<int>(node), src.column});
      }
      if (src.step >= static_cast<int>(i)) {
        suffix_nodes_[i].push_back(static_cast<int>(node));
      }
    }

    // Keyword filters, same-column sets intersected down to one set each: a
    // row is checked against one compact set instead of k overlapping ones.
    const exec::JoinStep& step = plan->query.steps[i];
    for (size_t a = 0; a < step.in_filters.size(); ++a) {
      const exec::ColumnInSet& f = step.in_filters[a];
      bool first_for_column = true;
      for (size_t b = 0; b < a; ++b) {
        if (step.in_filters[b].column == f.column) {
          first_for_column = false;
          break;
        }
      }
      if (!first_for_column) continue;
      std::vector<const storage::IdSet*> sets;
      for (const exec::ColumnInSet& g : step.in_filters) {
        if (g.column == f.column) sets.push_back(g.set);
      }
      if (sets.size() == 1) {
        step_filters_[i].push_back(f);
        continue;
      }
      // Intersect: iterate the smallest set, require membership in the rest.
      const storage::IdSet* smallest = sets[0];
      for (const storage::IdSet* s : sets) {
        if (s->size() < smallest->size()) smallest = s;
      }
      storage::IdSet merged;
      for (storage::ObjectId id : *smallest) {
        bool ok = true;
        for (const storage::IdSet* s : sets) {
          if (s != smallest && !s->contains(id)) {
            ok = false;
            break;
          }
        }
        if (ok) merged.insert(id);
      }
      owned_sets_.push_back(std::move(merged));
      step_filters_[i].push_back(exec::ColumnInSet{f.column, &owned_sets_.back()});
    }

    // Semi-join prune filters: one Bloom per join column this step is probed
    // on, summarizing values among rows passing the step's local filters.
    if (bloom_cache != nullptr && i > 0) {
      for (const auto& [col, ref] : step.eq) {
        (void)ref;
        bool duplicate = false;
        for (const BloomCache::Slot* existing : prune_slots_[i]) {
          if (existing->column == col) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        prune_slots_[i].push_back(
            bloom_cache->Find(step, plan->step_signatures[i], col));
      }
    }
  }

  if (plan->ctssn != nullptr) same_segment_groups_ = SameSegmentGroups(*plan->ctssn);
}

// --- PlanEvaluator -------------------------------------------------------

PlanEvaluator::PlanEvaluator(const PlanLayout* layout,
                             exec::ExecOptions exec_options, bool enable_cache,
                             size_t cache_capacity)
    : layout_(layout),
      plan_(&layout->plan()),
      exec_options_(exec_options),
      enable_cache_(enable_cache) {
  const size_t num_steps = plan_->query.steps.size();
  caches_.resize(num_steps);
  binding_scratch_.resize(num_steps);
  row_scratch_.resize(num_steps);
  step_blooms_.resize(num_steps);
  unbuilt_.resize(num_steps);
  for (size_t i = 0; i < num_steps; ++i) {
    for (BloomCache::Slot* slot : layout->prune_slots_[i]) {
      if (const storage::BloomFilter* filter = slot->Ready()) {
        step_blooms_[i].push_back(exec::ColumnBloom{slot->column, filter});
      } else {
        unbuilt_[i].push_back(slot);
      }
    }
  }
  if (enable_cache_ && num_steps > 1) {
    size_t per_level = std::max<size_t>(cache_capacity / (num_steps - 1), 16);
    for (size_t i = 1; i < num_steps; ++i) {
      caches_[i] = std::make_unique<LruCache<std::string, Completions>>(per_level);
    }
  }
}

std::string PlanEvaluator::CacheKey(
    size_t i, const std::vector<storage::TupleView>& rows) const {
  const std::vector<exec::ColumnRef>& deps = layout_->deps_[i];
  std::string key;
  key.resize(deps.size() * sizeof(storage::ObjectId));
  char* out = key.data();
  for (const exec::ColumnRef& ref : deps) {
    storage::ObjectId v =
        rows[static_cast<size_t>(ref.step)][static_cast<size_t>(ref.column)];
    std::memcpy(out, &v, sizeof(v));
    out += sizeof(v);
  }
  return key;
}

void PlanEvaluator::ProjectToCollectors(const std::vector<storage::ObjectId>& objs) {
  for (Collector* c : active_collectors_) {
    if (c->overflowed) continue;
    const std::vector<int>& suffix = layout_->suffix_nodes_[c->level];
    std::vector<storage::ObjectId>& out = c->completions.objects;
    if (out.size() + suffix.size() > kMaxCollectedObjects) {
      c->overflowed = true;
      std::vector<storage::ObjectId>().swap(out);
      continue;
    }
    for (int node : suffix) out.push_back(objs[static_cast<size_t>(node)]);
    ++c->completions.count;
  }
}

bool PlanEvaluator::Eval(
    size_t i, std::vector<storage::TupleView>* rows,
    std::vector<storage::ObjectId>* objs,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  // Cooperative stop: unwind as if the sink declined, so no truncated suffix
  // enumeration is ever cached (the keep_going guard below skips the Put).
  if (exec_options_.cancel != nullptr && exec_options_.cancel->StopRequested()) {
    return false;
  }
  const std::vector<exec::JoinStep>& steps = plan_->query.steps;
  if (i == steps.size()) {
    ProjectToCollectors(*objs);
    if (!DistinctAcross(layout_->same_segment_groups_, *objs)) return true;
    ++stats_.results;
    return emit(*objs);
  }

  auto* cache = caches_[i].get();
  std::string key;
  if (cache != nullptr) {
    key = CacheKey(i, *rows);
    const Completions* hit = cache->Get(key);
    if (hit != nullptr) {
      ++stats_.cache_hits;
      // Replay the memoized suffix: each completion is a full assignment of
      // the remaining occurrences.
      const std::vector<int>& suffix = layout_->suffix_nodes_[i];
      const storage::ObjectId* completion = hit->objects.data();
      for (size_t c = 0; c < hit->count; ++c, completion += suffix.size()) {
        for (size_t x = 0; x < suffix.size(); ++x) {
          (*objs)[static_cast<size_t>(suffix[x])] = completion[x];
        }
        ProjectToCollectors(*objs);
        if (!DistinctAcross(layout_->same_segment_groups_, *objs)) continue;
        ++stats_.results;
        if (!emit(*objs)) return false;
      }
      return true;
    }
    ++stats_.cache_misses;
  }

  Collector collector{i, false, {}};
  if (cache != nullptr) active_collectors_.push_back(&collector);

  const exec::JoinStep& step = steps[i];
  std::vector<exec::ColumnBinding>& bindings = binding_scratch_[i];
  bindings.assign(step.const_filters.begin(), step.const_filters.end());
  bindings.reserve(bindings.size() + step.eq.size());
  for (const auto& [col, ref] : step.eq) {
    bindings.push_back(exec::ColumnBinding{
        col, (*rows)[static_cast<size_t>(ref.step)][static_cast<size_t>(ref.column)]});
  }

  // Rent accounting, only while the step has unbuilt filters: the probe's
  // own work is the Work() it adds outside the deeper steps it recurses into.
  const bool renting = !unbuilt_[i].empty();
  const uint64_t skips_before = stats_.probes.bloom_skips;
  uint64_t own_work = 0;
  uint64_t work_mark = renting ? Work() : 0;
  bool matched = false;
  bool keep_going = true;
  exec::ForEachMatch(*step.table, bindings, layout_->step_filters_[i],
                     step_blooms_[i], exec_options_,
                     [&](storage::RowId r) {
                       (*rows)[i] = step.table->RowInto(r, &row_scratch_[i]);
                       for (const auto& [node, col] : layout_->nodes_at_[i]) {
                         (*objs)[static_cast<size_t>(node)] =
                             (*rows)[i][static_cast<size_t>(col)];
                       }
                       matched = true;
                       if (renting) own_work += Work() - work_mark;
                       keep_going = Eval(i + 1, rows, objs, emit);
                       if (renting) work_mark = Work();
                       return keep_going;
                     },
                     &stats_.probes);
  // A probe a built filter rejected matched nothing and counted a skip.
  if (renting && (matched || stats_.probes.bloom_skips == skips_before)) {
    own_work += Work() - work_mark;
    PayRent(i, exec::kSeekLookupCost + own_work);
  }

  if (cache != nullptr) {
    XK_CHECK(active_collectors_.back() == &collector);
    active_collectors_.pop_back();
    // Only complete enumerations are reusable.
    if (keep_going && !collector.overflowed) {
      cache->Put(key, std::move(collector.completions));
    }
  }
  return keep_going;
}

uint64_t PlanEvaluator::Work() const {
  return stats_.probes.rows_scanned + exec::kPageMissCost * page_counters_->misses;
}

void PlanEvaluator::PayRent(size_t i, uint64_t cost) {
  std::vector<BloomCache::Slot*>& unbuilt = unbuilt_[i];
  for (size_t s = 0; s < unbuilt.size();) {
    BloomCache::Slot* slot = unbuilt[s];
    if (slot->rent.fetch_add(cost, std::memory_order_relaxed) + cost <
        slot->build_cost) {
      ++s;
      continue;
    }
    step_blooms_[i].push_back(exec::ColumnBloom{
        slot->column, layout_->bloom_cache_->Build(slot, &stats_)});
    unbuilt[s] = unbuilt.back();
    unbuilt.pop_back();
  }
}

void PlanEvaluator::Run(
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  if (plan_->query.steps.empty()) return;  // single-object plans handled elsewhere
  page_counters_ = &storage::BufferPool::ThreadCounters();
  std::vector<storage::TupleView> rows(plan_->query.steps.size());
  std::vector<storage::ObjectId> objs(plan_->node_source.size(),
                                      storage::kInvalidId);
  Eval(0, &rows, &objs, emit);
}

// --- Single-object plans -------------------------------------------------

void EvaluateSingleObjectPlan(
    const PreparedQuery& query, size_t plan_index,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit,
    ExecutionStats* stats) {
  const opt::NodeFilters& filters = query.node_filters[plan_index];
  XK_CHECK_EQ(filters.size(), 1u);
  const std::vector<const storage::IdSet*>& sets = filters[0];
  XK_CHECK(!sets.empty());
  // Intersect: iterate the smallest set, check the others.
  const storage::IdSet* smallest = sets[0];
  for (const storage::IdSet* s : sets) {
    if (s->size() < smallest->size()) smallest = s;
  }
  std::vector<storage::ObjectId> ids(smallest->begin(), smallest->end());
  std::sort(ids.begin(), ids.end());  // deterministic order
  if (stats != nullptr) {
    ++stats->probes.probes;
    stats->probes.rows_scanned += ids.size();
  }
  std::vector<storage::ObjectId> objs(1);
  for (storage::ObjectId id : ids) {
    bool ok = true;
    for (const storage::IdSet* s : sets) {
      if (s != smallest && !s->contains(id)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    objs[0] = id;
    if (stats != nullptr) {
      ++stats->probes.rows_matched;
      ++stats->results;
    }
    if (!emit(objs)) return;
  }
}

// --- TopKExecutor --------------------------------------------------------

void SortMttons(std::vector<present::Mtton>* results) {
  std::stable_sort(results->begin(), results->end(),
                   [](const present::Mtton& a, const present::Mtton& b) {
                     if (a.score != b.score) return a.score < b.score;
                     if (a.ctssn_index != b.ctssn_index) {
                       return a.ctssn_index < b.ctssn_index;
                     }
                     return a.objects < b.objects;
                   });
}

Result<std::vector<present::Mtton>> TopKExecutor::Run(const PreparedQuery& query,
                                                      const QueryOptions& options,
                                                      ExecutionStats* stats,
                                                      Coverage* coverage,
                                                      ResultSink* sink) {
  std::vector<ExecutionStats> per_plan_stats(query.plans.size());
  BloomCache bloom_cache(query.exec_options.use_indexes);

  // Deadline/cancel token, threaded into every probe via the exec options.
  const CancelToken* cancel = options.cancel;
  exec::ExecOptions exec_options = query.exec_options;
  exec_options.cancel = cancel;

  auto skip_plan = [&](size_t p) {
    return options.max_network_size > 0 &&
           query.ctssns[p].tree.size() > options.max_network_size;
  };
  auto stop_requested = [&] {
    return cancel != nullptr && cancel->StopRequested();
  };

  // Execution order: nondecreasing network size — smaller networks answer
  // first and rank higher — cheapest estimate first inside a size class.
  std::vector<bool> active(query.plans.size());
  for (size_t p = 0; p < query.plans.size(); ++p) active[p] = !skip_plan(p);
  const std::vector<size_t> order = opt::PlanSchedule(query.plans);

  // Anytime cost budget + per-plan outcome ledger. With no cost budget every
  // plan is admitted; the ledger then only backs the coverage report.
  ProgressBudget budget(query, active, options.anytime_cost_budget);
  budget.PreAdmit(order);

  // Per-CN thread pool (Section 6). Each plan emits into its own buffer,
  // capped at per_network_k, and the answer concatenates the buffers in
  // schedule order — the order a serial run appends them — so it does not
  // depend on the interleaving. The global_k stop fires only once the
  // completed prefix of the schedule holds global_k results: no later plan
  // can reach the first global_k of that concatenation. `mutex` guards the
  // completed-prefix state and the stream state; a plan's buffer is written
  // by its own thread only and read by others once the plan is done.
  std::vector<std::vector<present::Mtton>> buffers(query.plans.size());
  std::vector<size_t> position(query.plans.size());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  std::vector<uint8_t> done(order.size(), 0);
  size_t prefix_done = 0;     // schedule positions [0, prefix_done) are done
  size_t prefix_results = 0;  // results buffered by those plans
  std::mutex mutex;
  std::atomic<bool> global_stop{false};
  auto finish_plan = [&](size_t p) {
    done[position[p]] = 1;
    while (prefix_done < order.size() && done[prefix_done] != 0) {
      prefix_results += buffers[order[prefix_done]].size();
      ++prefix_done;
    }
    if (options.global_k != 0 && prefix_results >= options.global_k) {
      global_stop.store(true, std::memory_order_relaxed);
    }
  };
  for (size_t p : order) {
    if (!active[p]) finish_plan(p);
  }

  // Finalized-prefix streaming (engine/result_sink.h): per CN size class, the
  // number of scheduled plans that can still append results. When a plan is
  // done for good — completed, capped, budget-skipped, or interrupted — its
  // class count drops; once every class <= W has drained, all results with
  // score <= W are final and their sorted form is the prefix of the eventual
  // response, so the delta past what was already streamed goes to the sink.
  // Plans left unvisited by a global stop never decrement: the watermark
  // simply stalls and the tail rides the final response. Callers must hold
  // `mutex`.
  std::map<int, size_t> stream_pending;
  size_t streamed = 0;
  if (sink != nullptr) {
    for (size_t p = 0; p < query.plans.size(); ++p) {
      if (active[p]) ++stream_pending[query.ctssns[p].cn_size];
    }
  }
  auto stream_plan_done = [&](size_t p) {
    if (sink == nullptr) return;
    auto it = stream_pending.find(query.ctssns[p].cn_size);
    XK_CHECK(it != stream_pending.end() && it->second > 0);
    if (--it->second == 0) stream_pending.erase(it);
    const int watermark = stream_pending.empty()
                              ? std::numeric_limits<int>::max()
                              : stream_pending.begin()->first - 1;
    // Every plan of a class <= watermark is done, and the schedule is
    // nondecreasing in class, so these buffers are a finished schedule
    // prefix: cut at global_k in schedule order, as the final answer is.
    std::vector<present::Mtton> finalized;
    for (size_t q : order) {
      if (query.ctssns[q].cn_size > watermark) continue;
      for (const present::Mtton& m : buffers[q]) {
        if (options.global_k != 0 && finalized.size() == options.global_k) break;
        finalized.push_back(m);
      }
    }
    SortMttons(&finalized);
    if (finalized.size() > streamed) {
      sink->OnBatch(
          std::span<const present::Mtton>(finalized).subspan(streamed));
      streamed = finalized.size();
    }
  };

  auto run_plan = [&](size_t p) {
    // Order matters for the coverage ledger: a global-k stop leaves the plan
    // to MarkUnreachedComplete below (the answer needs nothing from it); a
    // deadline/cancel stop leaves it "skipped".
    if (global_stop.load(std::memory_order_relaxed)) return;
    if (stop_requested()) return;
    if (!active[p]) return;
    if (!budget.AdmitPlan(p)) {  // skip whole CN, try the next
      std::lock_guard<std::mutex> lock(mutex);
      finish_plan(p);
      stream_plan_done(p);
      return;
    }
    std::vector<present::Mtton>& out = buffers[p];
    const int score = query.ctssns[p].cn_size;
    auto emit = [&](const std::vector<storage::ObjectId>& objs) {
      out.push_back(present::Mtton{static_cast<int>(p), objs, score});
      if (out.size() >= options.per_network_k) return false;
      if (options.global_k == 0) return true;
      if (global_stop.load(std::memory_order_relaxed)) return false;
      // At the frontier (every earlier plan done) the prefix count is final,
      // so the plan stops where a serial run would.
      std::lock_guard<std::mutex> lock(mutex);
      return prefix_done != position[p] ||
             prefix_results + out.size() < options.global_k;
    };

    if (query.plans[p].query.steps.empty()) {
      EvaluateSingleObjectPlan(query, p, emit, &per_plan_stats[p]);
      budget.OnPlanComplete(p);
    } else {
      PlanLayout layout(&query.plans[p], &bloom_cache);
      PlanEvaluator evaluator(&layout, exec_options, options.enable_cache,
                              options.cache_capacity);
      evaluator.Run(emit);
      per_plan_stats[p].Add(evaluator.stats());
      // A sink decline (per-network-k / global-k) is a complete outcome; only
      // a deadline/cancel trip marks the plan interrupted.
      if (stop_requested()) {
        budget.OnPlanInterrupted(p);
      } else {
        budget.OnPlanComplete(p);
      }
    }
    // Attribute this pool thread's page traffic to the plan it just ran
    // (each plan executes on exactly one thread, so the slot is private).
    DrainPageCounters(&per_plan_stats[p]);
    std::lock_guard<std::mutex> lock(mutex);
    finish_plan(p);
    stream_plan_done(p);
  };

  if (options.num_threads <= 1 || query.plans.size() <= 1) {
    for (size_t p : order) run_plan(p);
  } else {
    ThreadPool pool(options.num_threads);
    for (size_t p : order) {
      pool.Submit([&run_plan, p] { run_plan(p); });
    }
    pool.Wait();
  }
  if (global_stop.load(std::memory_order_relaxed) && !stop_requested()) {
    budget.MarkUnreachedComplete();
  }

  std::vector<present::Mtton> results;
  for (size_t p : order) {
    for (present::Mtton& m : buffers[p]) {
      if (options.global_k != 0 && results.size() == options.global_k) break;
      results.push_back(std::move(m));
    }
  }
  SortMttons(&results);
  if (coverage != nullptr) *coverage = budget.Finish();
  if (stats != nullptr) {
    for (const ExecutionStats& s : per_plan_stats) stats->Add(s);
    stats->results = results.size();
  }
  return results;
}

}  // namespace xk::engine
