#include "engine/full_executor.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/logging.h"
#include "engine/progress_budget.h"
#include "engine/topk_executor.h"
#include "exec/join_hash_table.h"
#include "exec/plan.h"
#include "exec/row_block.h"

namespace xk::engine {

namespace {

/// Occurrence groups of one segment with >= 2 members.
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

/// Filtered scan of one step's relation (local filters only), materialized
/// through the reuse cache. With `use_indexes` the scan may run as a keyword
/// seek; the rows and their order are the same either way.
const std::vector<storage::Tuple>* FilteredScan(
    const exec::JoinStep& step, const std::string& signature,
    opt::MaterializedViewCache* cache, bool enable_reuse, bool use_indexes,
    ExecutionStats* stats) {
  if (enable_reuse) {
    const std::vector<storage::Tuple>* hit = cache->Get(signature);
    if (hit != nullptr) return hit;
  }
  std::vector<storage::Tuple> rows;
  const exec::ExecOptions scan_options{.use_indexes = use_indexes};
  storage::Tuple scratch;
  exec::ForEachMatch(*step.table, step.const_filters, step.in_filters, scan_options,
                     [&](storage::RowId r) {
                       storage::TupleView row = step.table->RowInto(r, &scratch);
                       rows.emplace_back(row.begin(), row.end());
                       return true;
                     },
                     stats != nullptr ? &stats->probes : nullptr);
  return cache->Put(signature, std::move(rows));
}

/// Query-scoped memo of hash-join prefix intermediates, keyed by the
/// optimizer's prefix signatures. An entry stores the flat per-step scan
/// indexes after joining the prefix's last step; since the filtered scans
/// themselves are shared by signature (MaterializedViewCache::Put dedups),
/// the indexes are valid for every plan carrying the signature. Only
/// prefixes at least two plans share are stored, up to a byte budget.
struct SubplanMemo {
  struct Entry {
    size_t width;
    std::vector<uint32_t> rows;
  };
  std::unordered_map<std::string, int> shared_count;
  std::unordered_map<std::string, Entry> entries;
  size_t bytes = 0;
  size_t budget = 0;
};

/// Hash-join evaluation of one plan over caller-provided filtered scans.
/// Intermediates are kept as per-step indexes into the filtered scans (one
/// uint32 per step per row), so joins shuffle indexes, not tuples. The build
/// side is a flat open-addressing JoinHashTable whose duplicate chains keep
/// scan order, so output order is the scan-order nested enumeration.
void HashJoinOnScans(const opt::CtssnPlan& plan,
                     const std::vector<const std::vector<storage::Tuple>*>& scans,
                     SubplanMemo* memo, const exec::ExecOptions& exec_options,
                     ExecutionStats* stats,
                     const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  const std::vector<exec::JoinStep>& steps = plan.query.steps;
  const size_t num_steps = steps.size();
  const CancelToken* cancel = exec_options.cancel;
  auto groups = SameSegmentGroups(*plan.ctssn);

  auto stop_requested = [&] {
    return cancel != nullptr && cancel->StopRequested();
  };

  // Intermediate rows, flat: row r occupies [r*width, r*width + width).
  // Resume from the deepest memoized shared prefix when one exists (the
  // intermediate is deterministic per signature, so output is unchanged).
  size_t width = 1;
  size_t start = 1;
  std::vector<uint32_t> current;
  bool resumed = false;
  if (memo != nullptr) {
    for (size_t i = num_steps; i-- > 1;) {
      auto it = memo->entries.find(plan.prefix_signatures[i]);
      if (it == memo->entries.end()) continue;
      width = it->second.width;
      start = width;
      current = it->second.rows;
      resumed = true;
      if (stats != nullptr) {
        ++stats->subplan_hits;
        stats->dedup_saved_rows += current.size() / width;
      }
      break;
    }
  }
  if (!resumed) {
    current.resize(scans[0]->size());
    for (uint32_t r = 0; r < current.size(); ++r) current[r] = r;
  }

  const size_t block = exec_options.block_size != 0
                           ? exec_options.block_size
                           : exec::RowBlock::kDefaultCapacity;

  for (size_t i = start; i < num_steps && !current.empty(); ++i) {
    if (stop_requested()) return;
    const exec::JoinStep& s = steps[i];
    const std::vector<storage::Tuple>& build_rows = *scans[i];
    std::vector<uint32_t> next;
    const size_t rows = current.size() / width;

    // Build: flat open-addressing table keyed on the eq columns; duplicate
    // rows chain in scan order.
    exec::JoinHashTable table(static_cast<int>(s.eq.size()));
    table.Reserve(build_rows.size());
    storage::Tuple key(s.eq.size());
    for (size_t r = 0; r < build_rows.size(); ++r) {
      for (size_t k = 0; k < s.eq.size(); ++k) {
        key[k] = build_rows[r][static_cast<size_t>(s.eq[k].first)];
      }
      table.Insert(key.data(), static_cast<uint32_t>(r));
    }
    // Probe: gather each row's key and walk its match chain, polling
    // cancellation once per block of rows.
    for (size_t base = 0; base < rows; base += block) {
      if (stop_requested()) return;
      for (size_t r = base; r < std::min(rows, base + block); ++r) {
        const uint32_t* left = &current[r * width];
        for (size_t k = 0; k < s.eq.size(); ++k) {
          const exec::ColumnRef& ref = s.eq[k].second;
          key[k] = (*scans[static_cast<size_t>(ref.step)])[left[ref.step]]
                       [static_cast<size_t>(ref.column)];
        }
        for (uint32_t node = table.Lookup(key.data());
             node != exec::JoinHashTable::kNil;
             node = table.NextMatch(node)) {
          next.insert(next.end(), left, left + width);
          next.push_back(table.MatchRow(node));
        }
      }
    }
    current = std::move(next);
    ++width;
    // Memoize the completed prefix when other plans share it and the budget
    // allows (only complete levels reach this point: cancellation returns
    // above, so the memo never holds truncated intermediates).
    if (memo != nullptr) {
      const std::string& sig = plan.prefix_signatures[i];
      auto shared = memo->shared_count.find(sig);
      if (shared != memo->shared_count.end() && shared->second >= 2 &&
          memo->entries.find(sig) == memo->entries.end()) {
        const size_t add = current.size() * sizeof(uint32_t);
        if (memo->bytes + add <= memo->budget) {
          memo->entries.emplace(sig, SubplanMemo::Entry{width, current});
          memo->bytes += add;
          if (stats != nullptr) {
            ++stats->subplan_misses;
            stats->subplan_bytes =
                std::max(stats->subplan_bytes, static_cast<uint64_t>(memo->bytes));
          }
        }
      }
    }
  }

  std::vector<storage::ObjectId> objs(plan.node_source.size());
  const size_t rows = current.size() / width;
  for (size_t r = 0; r < rows; ++r) {
    if ((r & 0x3FF) == 0 && stop_requested()) return;
    const uint32_t* row = &current[r * width];
    for (size_t node = 0; node < plan.node_source.size(); ++node) {
      const exec::ColumnRef& src = plan.node_source[node];
      objs[node] = (*scans[static_cast<size_t>(src.step)])[row[src.step]]
                       [static_cast<size_t>(src.column)];
    }
    if (!DistinctAcross(groups, objs)) continue;
    if (stats != nullptr) ++stats->results;
    if (!emit(objs)) break;
  }
}

/// Full hash-join evaluation of one plan with reuse of filtered scans.
void RunHashJoin(const opt::CtssnPlan& plan, opt::MaterializedViewCache* cache,
                 bool enable_reuse, SubplanMemo* memo,
                 const exec::ExecOptions& exec_options, ExecutionStats* stats,
                 const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  // Filtered scans stay cancel-free: they are bounded by table size and feed
  // the per-query reuse cache, which must never hold truncated views.
  const size_t num_steps = plan.query.steps.size();
  std::vector<const std::vector<storage::Tuple>*> scans(num_steps);
  for (size_t i = 0; i < num_steps; ++i) {
    scans[i] = FilteredScan(plan.query.steps[i], plan.step_signatures[i], cache,
                            enable_reuse, exec_options.use_indexes, stats);
  }
  HashJoinOnScans(plan, scans, memo, exec_options, stats, emit);
}

void RunIndexNestedLoop(
    const opt::CtssnPlan& plan, const exec::ExecOptions& exec_options,
    bool enable_semijoin_pruning, BloomCache* bloom_cache, ExecutionStats* stats,
    const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  auto groups = SameSegmentGroups(*plan.ctssn);
  exec::NestedLoopExecutor executor(&plan.query, exec_options);
  PlanLayout layout(&plan, enable_semijoin_pruning, bloom_cache, stats);
  executor.set_step_blooms(&layout.step_blooms());
  std::vector<storage::ObjectId> objs(plan.node_source.size());
  Status st = executor.Run([&](const std::vector<storage::TupleView>& rows) {
    for (size_t node = 0; node < plan.node_source.size(); ++node) {
      const exec::ColumnRef& src = plan.node_source[node];
      objs[node] = rows[static_cast<size_t>(src.step)][static_cast<size_t>(src.column)];
    }
    if (!DistinctAcross(groups, objs)) return true;
    if (stats != nullptr) ++stats->results;
    return emit(objs);
  });
  XK_CHECK(st.ok());
  if (stats != nullptr) stats->probes.Add(executor.stats());
}

}  // namespace

Result<std::vector<present::Mtton>> FullExecutor::Run(const PreparedQuery& query,
                                                      ExecutionStats* stats,
                                                      Coverage* coverage) {
  std::vector<present::Mtton> results;
  opt::MaterializedViewCache cache;
  BloomCache bloom_cache(query.exec_options.use_indexes);
  BloomCache* bloom_cache_ptr =
      options_.enable_semijoin_pruning ? &bloom_cache : nullptr;

  exec::ExecOptions exec_options = query.exec_options;
  exec_options.cancel = options_.cancel;

  std::vector<bool> active(query.plans.size(), false);
  for (size_t p = 0; p < query.plans.size(); ++p) {
    active[p] = options_.max_network_size <= 0 ||
                query.ctssns[p].tree.size() <=
                    static_cast<size_t>(options_.max_network_size);
  }
  // Outcome ledger only: kAll is never budgeted (its contract is the complete
  // list), but a deadline/cancel trip still yields an honest coverage report.
  QueryOptions ledger_options = options_;
  ledger_options.enable_anytime = false;
  ProgressBudget ledger(query, active, ledger_options);

  // Prefix-intermediate memo for the hash-join path: count how many runnable
  // plans carry each prefix signature, so only genuinely shared prefixes are
  // stored. Requires scan reuse (the memo indexes the shared scans).
  SubplanMemo memo;
  SubplanMemo* memo_ptr = nullptr;
  if (options_.enable_scan_reuse && options_.enable_subplan_reuse) {
    memo.budget = options_.subplan_cache_budget_bytes;
    for (size_t p = 0; p < query.plans.size(); ++p) {
      if (!active[p]) continue;
      for (const std::string& sig : query.plans[p].prefix_signatures) {
        ++memo.shared_count[sig];
      }
    }
    memo_ptr = &memo;
  }

  auto stop_requested = [&] {
    return options_.cancel != nullptr && options_.cancel->StopRequested();
  };
  for (size_t p = 0; p < query.plans.size(); ++p) {
    if (stop_requested()) break;  // unvisited plans stay "skipped"
    const opt::CtssnPlan& plan = query.plans[p];
    if (!active[p]) continue;
    auto emit = [&](const std::vector<storage::ObjectId>& objs) {
      results.push_back(
          present::Mtton{static_cast<int>(p), objs, query.ctssns[p].cn_size});
      return true;
    };
    if (plan.query.steps.empty()) {
      EvaluateSingleObjectPlan(query, p, emit, stats);
      ledger.OnPlanComplete(p, 0, 0);
      continue;
    }
    FullMode mode = options_.full_mode;
    if (mode == FullMode::kAuto) {
      bool indexed = query.exec_options.use_indexes;
      if (indexed) {
        indexed = false;
        for (const exec::JoinStep& s : plan.query.steps) {
          if (s.table->HasAnyIndex() || s.table->IsClustered()) {
            indexed = true;
            break;
          }
        }
      }
      mode = indexed ? FullMode::kIndexNestedLoop : FullMode::kHashJoin;
    }
    if (mode == FullMode::kIndexNestedLoop) {
      RunIndexNestedLoop(plan, exec_options, options_.enable_semijoin_pruning,
                         bloom_cache_ptr, stats, emit);
    } else {
      RunHashJoin(plan, &cache, options_.enable_scan_reuse, memo_ptr,
                  exec_options, stats, emit);
    }
    // A stop observed right after a plan may have landed mid-plan: report it
    // as interrupted, never as complete.
    if (stop_requested()) {
      ledger.OnPlanInterrupted(p);
    } else {
      ledger.OnPlanComplete(p, 0, 0);
    }
  }
  if (coverage != nullptr) *coverage = ledger.Finish();

  std::stable_sort(results.begin(), results.end(),
                   [](const present::Mtton& a, const present::Mtton& b) {
                     if (a.score != b.score) return a.score < b.score;
                     if (a.ctssn_index != b.ctssn_index) {
                       return a.ctssn_index < b.ctssn_index;
                     }
                     return a.objects < b.objects;
                   });
  if (stats != nullptr) {
    stats->results = results.size();
    stats->reuse_hits += cache.hits();
    stats->reuse_misses += cache.misses();
  }
  return results;
}

}  // namespace xk::engine
