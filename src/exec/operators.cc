#include "exec/operators.h"

#include <algorithm>

#include "common/cancel_token.h"
#include "exec/access_path.h"
#include "exec/block_ops.h"

namespace xk::exec {

std::vector<storage::ObjectId> KeyPrefixFromBindings(
    const std::vector<int>& key, const std::vector<ColumnBinding>& bindings) {
  std::vector<storage::ObjectId> prefix;
  prefix.reserve(key.size());
  for (int key_col : key) {
    auto it = std::find_if(bindings.begin(), bindings.end(),
                           [key_col](const ColumnBinding& b) {
                             return b.column == key_col;
                           });
    if (it == bindings.end()) break;
    prefix.push_back(it->value);
  }
  return prefix;
}

const char* AccessPathKindToString(AccessPathKind kind) {
  switch (kind) {
    case AccessPathKind::kClusteredRange: return "clustered-range";
    case AccessPathKind::kCompositeIndex: return "composite-index";
    case AccessPathKind::kHashIndex: return "hash-index";
    case AccessPathKind::kKeywordSeek: return "keyword-seek";
    case AccessPathKind::kFullScan: return "full-scan";
  }
  return "?";
}

AccessPathKind ForEachMatch(const storage::Table& table,
                            const std::vector<ColumnBinding>& bindings,
                            const std::vector<ColumnInSet>& in_filters,
                            const std::vector<ColumnBloom>& prune_blooms,
                            const ExecOptions& opts,
                            const std::function<bool(storage::RowId)>& fn,
                            ProbeStats* stats) {
  if (opts.vectorized) {
    // Adaptive batch path: small index probes run a fused scalar loop with
    // allocation-free cursor setup, large scans are filtered block-at-a-time
    // by selection-vector kernels; matches arrive in candidate order either
    // way, so callers see the exact row sequence the loop below produces.
    return ForEachMatchRows(table, bindings, in_filters, prune_blooms, opts,
                            fn, stats);
  }
  if (stats != nullptr) ++stats->probes;
  const PathChoice choice = ChoosePath(table, bindings, opts);

  // Semi-join pruning: a bound value absent from a column's Bloom summary
  // cannot match any row that survives the step's local filters.
  if (BloomPruned(bindings, prune_blooms, stats)) return choice.kind;
  if (opts.cancel != nullptr && opts.cancel->StopRequested()) return choice.kind;

  CandidateCursor cursor;
  const AccessPathKind kind = cursor.Init(choice, table, bindings, in_filters, opts);
  // Candidates arrive in chunks; cancellation is polled once per chunk —
  // cheap enough to keep scan overhead negligible, tight enough that a
  // tripped deadline stops mid-scan within microseconds.
  constexpr size_t kChunk = 256;
  storage::RowId chunk[kChunk];
  while (true) {
    const size_t n = cursor.Fill(chunk, kChunk);
    if (n == 0) return kind;
    for (size_t i = 0; i < n; ++i) {
      if (stats != nullptr) ++stats->rows_scanned;
      if (!RowPasses(table, chunk[i], bindings, in_filters)) continue;
      if (stats != nullptr) ++stats->rows_matched;
      if (!fn(chunk[i])) return kind;
    }
    if (opts.cancel != nullptr && opts.cancel->StopRequested()) return kind;
  }
}

AccessPathKind ForEachMatch(const storage::Table& table,
                            const std::vector<ColumnBinding>& bindings,
                            const std::vector<ColumnInSet>& in_filters,
                            const ExecOptions& opts,
                            const std::function<bool(storage::RowId)>& fn,
                            ProbeStats* stats) {
  return ForEachMatch(table, bindings, in_filters, {}, opts, fn, stats);
}

TableScanIterator::TableScanIterator(const storage::Table& table,
                                     std::vector<ColumnBinding> bindings,
                                     std::vector<ColumnInSet> in_filters)
    : table_(table),
      bindings_(std::move(bindings)),
      in_filters_(std::move(in_filters)) {}

bool TableScanIterator::Next(storage::Tuple* out) {
  const storage::RowId n = static_cast<storage::RowId>(table_.NumRows());
  while (next_row_ < n) {
    storage::RowId r = next_row_++;
    if (RowPasses(table_, r, bindings_, in_filters_)) {
      storage::TupleView row = table_.RowInto(r, &row_scratch_);
      out->assign(row.begin(), row.end());
      return true;
    }
  }
  return false;
}

}  // namespace xk::exec
