// Copyright (c) the XKeyword authors.
//
// Physical access paths over connection relations. A probe binds some columns
// to constants (join bindings from outer loops, or keyword restrictions) and
// enumerates matching rows. The path chosen mirrors the physical designs the
// paper compares in Section 7:
//   clustered range  — index-organized tables ("MinClust", XKeyword relations
//                      clustered "on the direction that R is used")
//   composite index  — multi-attribute indexes of the maximal decomposition
//   hash index       — "single attribute indices on every attribute"
//   keyword seek     — no bound column, but a keyword (in-set) filter on an
//                      indexed column: the per-direction indexes find the
//                      keyword-filtered rows (access_path.h)
//   full scan        — "MinNClustNIndx", no indexes or clustering

#ifndef XK_EXEC_OPERATORS_H_
#define XK_EXEC_OPERATORS_H_

#include <functional>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace xk {
class CancelToken;
}  // namespace xk

namespace xk::exec {

/// Equality binding of a table column to a constant for one probe.
struct ColumnBinding {
  int column;
  storage::ObjectId value;
};

/// Restriction of a column to an id set (a keyword containing list).
struct ColumnInSet {
  int column;
  const storage::IdSet* set;  // not owned; must outlive the probe
};

/// Semi-join prune: a Bloom filter summarizing the values `column` can take
/// among rows that could ever match this probe's relation (e.g. rows passing
/// the step's local keyword filters). A probe whose binding for `column` is
/// definitely absent is rejected without touching the table.
struct ColumnBloom {
  int column;
  const storage::BloomFilter* bloom;  // not owned; must outlive the probe
};

/// Which physical path served a probe (exposed for tests and benches).
enum class AccessPathKind {
  kClusteredRange,
  kCompositeIndex,
  kHashIndex,
  kKeywordSeek,
  kFullScan,
};

const char* AccessPathKindToString(AccessPathKind kind);

/// Execution-time knobs; each decomposition policy sets these.
struct ExecOptions {
  /// When false, every probe is a full scan (the MinNClustNIndx policy).
  bool use_indexes = true;
  /// Ignored by the library; kept only because perfbench/xkbench.cc names it.
  bool vectorized = true;
  /// Largest block of candidates a probe filters at once
  /// (0 = RowBlock::kDefaultCapacity). Never changes results; tests use it
  /// to move block boundaries.
  size_t block_size = 0;
  /// Ignored by the library; kept only because perfbench/xkbench.cc names it.
  bool force_scalar_kernels = false;
  /// Cooperative cancellation/deadline token (not owned, may be null).
  /// ForEachMatch polls it once per block of candidates (once per probe for
  /// small index probes) and abandons the probe; callers classify the early
  /// stop via CancelToken::ToStatus().
  const CancelToken* cancel = nullptr;
};

/// Bound columns arranged as the longest possible prefix of `key`, or empty
/// if not even the first key column is bound.
std::vector<storage::ObjectId> KeyPrefixFromBindings(
    const std::vector<int>& key, const std::vector<ColumnBinding>& bindings);

/// Counters accumulated across probes; the benches report these alongside
/// wall time so the cost differences are explainable.
struct ProbeStats {
  uint64_t probes = 0;        // number of ForEachMatch calls
  uint64_t rows_scanned = 0;  // rows touched (incl. filtered-out)
  uint64_t rows_matched = 0;  // rows that passed every filter
  uint64_t bloom_skips = 0;   // probes rejected by a semi-join Bloom filter

  void Add(const ProbeStats& other) {
    probes += other.probes;
    rows_scanned += other.rows_scanned;
    rows_matched += other.rows_matched;
    bloom_skips += other.bloom_skips;
  }
};

/// Enumerates rows of `table` satisfying all bindings and in-set filters in
/// ascending row order where a full scan would visit them, invoking
/// `fn(row_id)`; `fn` returns false to stop early. Returns the path taken.
/// `stats` may be null. A probe whose binding fails one of `prune_blooms` is
/// skipped entirely (counted in `stats->bloom_skips`).
///
/// Adaptive (block_ops.cc): a probe with at most kScalarProbeThreshold
/// candidates runs a fused scalar loop; a larger one streams ramped blocks
/// through the selection kernels. Cursor setup builds key prefixes in a stack
/// buffer, so a probe allocates nothing once the thread-local block pool is
/// warm. On the block regime the counters are block-granular: a sink that
/// stops early still pays rows_scanned/rows_matched for the block it saw.
AccessPathKind ForEachMatch(const storage::Table& table,
                            const std::vector<ColumnBinding>& bindings,
                            const std::vector<ColumnInSet>& in_filters,
                            const std::vector<ColumnBloom>& prune_blooms,
                            const ExecOptions& opts,
                            const std::function<bool(storage::RowId)>& fn,
                            ProbeStats* stats);

/// Convenience overload without semi-join pruning.
AccessPathKind ForEachMatch(const storage::Table& table,
                            const std::vector<ColumnBinding>& bindings,
                            const std::vector<ColumnInSet>& in_filters,
                            const ExecOptions& opts,
                            const std::function<bool(storage::RowId)>& fn,
                            ProbeStats* stats);

}  // namespace xk::exec

#endif  // XK_EXEC_OPERATORS_H_
