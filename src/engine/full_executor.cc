#include "engine/full_executor.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "engine/progress_budget.h"
#include "engine/topk_executor.h"
#include "exec/join_hash_table.h"
#include "exec/row_block.h"

namespace xk::engine {

namespace {

/// Query-scoped filtered scans, keyed by the optimizer's step signatures
/// (Section 4's common-subexpression reuse: the same keyword-filtered
/// relation appears in many networks). unordered_map nodes never move, so a
/// returned scan stays valid while later steps insert.
struct ScanCache {
  std::unordered_map<std::string, std::vector<storage::Tuple>> scans;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Filtered scan of one step's relation (local filters only), materialized
/// once per query. With `use_indexes` the scan may run as a keyword seek; the
/// rows and their order are the same either way.
const std::vector<storage::Tuple>* FilteredScan(const exec::JoinStep& step,
                                                const std::string& signature,
                                                ScanCache* cache, bool use_indexes,
                                                ExecutionStats* stats) {
  auto [it, inserted] = cache->scans.try_emplace(signature);
  if (!inserted) {
    ++cache->hits;
    return &it->second;
  }
  ++cache->misses;
  std::vector<storage::Tuple>& rows = it->second;
  const exec::ExecOptions scan_options{.use_indexes = use_indexes};
  storage::Tuple scratch;
  exec::ForEachMatch(*step.table, step.const_filters, step.in_filters, scan_options,
                     [&](storage::RowId r) {
                       storage::TupleView row = step.table->RowInto(r, &scratch);
                       rows.emplace_back(row.begin(), row.end());
                       return true;
                     },
                     stats != nullptr ? &stats->probes : nullptr);
  return &rows;
}

/// Byte budget of the join-prefix memo below.
constexpr size_t kPrefixMemoBudgetBytes = 64ull << 20;

/// Query-scoped memo of hash-join prefix intermediates, keyed by the
/// optimizer's prefix signatures. An entry stores the flat per-step scan
/// indexes after joining the prefix's last step; since the filtered scans
/// themselves are shared by signature (ScanCache), the indexes are valid for
/// every plan carrying the signature. Only prefixes at least two plans share
/// are stored, up to kPrefixMemoBudgetBytes.
struct SubplanMemo {
  struct Entry {
    size_t width;
    std::vector<uint32_t> rows;
  };
  std::unordered_map<std::string, int> shared_count;
  std::unordered_map<std::string, Entry> entries;
  size_t bytes = 0;
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
    const std::string& sig = plan.prefix_signatures[i];
    auto shared = memo->shared_count.find(sig);
    if (shared != memo->shared_count.end() && shared->second >= 2 &&
        memo->entries.find(sig) == memo->entries.end()) {
      const size_t add = current.size() * sizeof(uint32_t);
      if (memo->bytes + add <= kPrefixMemoBudgetBytes) {
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
void RunHashJoin(const opt::CtssnPlan& plan, ScanCache* cache, SubplanMemo* memo,
                 const exec::ExecOptions& exec_options, ExecutionStats* stats,
                 const std::function<bool(const std::vector<storage::ObjectId>&)>& emit) {
  // Filtered scans stay cancel-free: they are bounded by table size and feed
  // the per-query scan cache, which must never hold truncated scans.
  const size_t num_steps = plan.query.steps.size();
  std::vector<const std::vector<storage::Tuple>*> scans(num_steps);
  for (size_t i = 0; i < num_steps; ++i) {
    scans[i] = FilteredScan(plan.query.steps[i], plan.step_signatures[i], cache,
                            exec_options.use_indexes, stats);
  }
  HashJoinOnScans(plan, scans, memo, exec_options, stats, emit);
}

}  // namespace

Result<std::vector<present::Mtton>> FullExecutor::Run(const PreparedQuery& query,
                                                      ExecutionStats* stats,
                                                      Coverage* coverage) {
  std::vector<present::Mtton> results;
  ScanCache scan_cache;
  BloomCache bloom_cache(query.exec_options.use_indexes);

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
  ProgressBudget ledger(query, active);

  // Prefix-intermediate memo for the hash-join path: count how many runnable
  // plans carry each prefix signature, so only genuinely shared prefixes are
  // stored.
  SubplanMemo memo;
  for (size_t p = 0; p < query.plans.size(); ++p) {
    if (!active[p]) continue;
    for (const std::string& sig : query.plans[p].prefix_signatures) {
      ++memo.shared_count[sig];
    }
  }

  // Ranking plan by plan: visiting plans in (CN size, index) order and
  // sorting each plan's results by objects yields SortMttons' order without
  // sorting the whole list.
  std::vector<size_t> order(query.plans.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return query.ctssns[a].cn_size < query.ctssns[b].cn_size;
  });

  auto stop_requested = [&] {
    return options_.cancel != nullptr && options_.cancel->StopRequested();
  };
  for (size_t p : order) {
    if (stop_requested()) break;  // unvisited plans stay "skipped"
    const opt::CtssnPlan& plan = query.plans[p];
    if (!active[p]) continue;
    const size_t first = results.size();
    auto emit = [&](const std::vector<storage::ObjectId>& objs) {
      results.push_back(
          present::Mtton{static_cast<int>(p), objs, query.ctssns[p].cn_size});
      return true;
    };
    if (plan.query.steps.empty()) {
      EvaluateSingleObjectPlan(query, p, emit, stats);
      ledger.OnPlanComplete(p);
      continue;  // already in object order
    }
    // Index-nested loops where the decomposition is indexed and runs its
    // indexes, full-scan hash joins otherwise — what the backing DBMS's
    // optimizer would pick (the Fig 15(b) axis).
    const bool indexed =
        query.exec_options.use_indexes &&
        std::any_of(plan.query.steps.begin(), plan.query.steps.end(),
                    [](const exec::JoinStep& s) {
                      return s.table->HasAnyIndex() || s.table->IsClustered();
                    });
    if (indexed) {
      // The Section-6 driver of the top-k executor, run to completion.
      PlanLayout layout(&plan, &bloom_cache);
      PlanEvaluator evaluator(&layout, exec_options, options_.enable_cache,
                              options_.cache_capacity);
      evaluator.Run(emit);
      if (stats != nullptr) stats->Add(evaluator.stats());
    } else {
      RunHashJoin(plan, &scan_cache, &memo, exec_options, stats, emit);
    }
    std::sort(results.begin() + static_cast<std::ptrdiff_t>(first), results.end(),
              [](const present::Mtton& a, const present::Mtton& b) {
                return a.objects < b.objects;
              });
    // A stop observed right after a plan may have landed mid-plan: report it
    // as interrupted, never as complete.
    if (stop_requested()) {
      ledger.OnPlanInterrupted(p);
    } else {
      ledger.OnPlanComplete(p);
    }
  }
  if (coverage != nullptr) *coverage = ledger.Finish();

  if (stats != nullptr) {
    stats->results = results.size();
    stats->reuse_hits += scan_cache.hits;
    stats->reuse_misses += scan_cache.misses;
  }
  return results;
}

}  // namespace xk::engine
