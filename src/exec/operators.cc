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
  if (stats != nullptr) ++stats->probes;
  // Decide the path without touching the table, then check the semi-join
  // Blooms before positioning the cursor: most probes of a pruned plan are
  // rejected here and never pay the range search or index lookup.
  const PathChoice choice = ChoosePath(table, bindings, opts);
  if (BloomPruned(bindings, prune_blooms, stats)) return choice.kind;
  CandidateCursor cursor;
  const AccessPathKind kind = cursor.Init(choice, table, bindings, in_filters, opts);

  if (cursor.Remaining() <= kScalarProbeThreshold) {
    // Index probes average a handful of candidates; block setup would cost
    // more than the kernels save, so run the fused scalar loop instead.
    // Cancellation is polled once, matching block granularity.
    if (opts.cancel != nullptr && opts.cancel->StopRequested()) return kind;
    storage::RowId candidates[kScalarProbeThreshold];
    const size_t n = cursor.Fill(candidates, kScalarProbeThreshold);
    for (size_t i = 0; i < n; ++i) {
      const storage::RowId r = candidates[i];
      if (stats != nullptr) ++stats->rows_scanned;
      if (!RowPasses(table, r, bindings, in_filters)) continue;
      if (stats != nullptr) ++stats->rows_matched;
      if (!fn(r)) return kind;
    }
    return kind;
  }

  RunBlockLoop(table, bindings, in_filters, opts, &cursor,
               [&fn](const RowBlock& b) {
                 for (size_t i = 0; i < b.num_selected; ++i) {
                   if (!fn(b.row_ids[b.sel[i]])) return false;
                 }
                 return true;
               },
               stats);
  return kind;
}

AccessPathKind ForEachMatch(const storage::Table& table,
                            const std::vector<ColumnBinding>& bindings,
                            const std::vector<ColumnInSet>& in_filters,
                            const ExecOptions& opts,
                            const std::function<bool(storage::RowId)>& fn,
                            ProbeStats* stats) {
  return ForEachMatch(table, bindings, in_filters, {}, opts, fn, stats);
}

}  // namespace xk::exec
