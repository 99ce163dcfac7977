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

#include "exec/row_iterator.h"
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
  /// Batch-at-a-time probe evaluation: candidates stream through RowBlocks
  /// and predicates run as selection-vector kernels (block_ops.h), polling
  /// cancellation once per block. Off = the row-at-a-time legacy path.
  /// Results are byte-identical either way.
  bool vectorized = true;
  /// Rows per batch on the vectorized path (0 = RowBlock::kDefaultCapacity).
  size_t block_size = 0;
  /// Pins the block kernels (selection, hash, probe, Bloom) to their scalar
  /// reference implementations regardless of detected CPU features. The SIMD
  /// variants are bit-identical, so this is a debugging/benchmarking knob,
  /// not a correctness one. Also forced by XK_FORCE_SCALAR_KERNELS=1.
  bool force_scalar_kernels = false;
  /// Cooperative cancellation/deadline token (not owned, may be null).
  /// ForEachMatch polls it every few hundred scanned rows (row path) or once
  /// per block (vectorized path) and abandons the probe; callers classify
  /// the early stop via CancelToken::ToStatus().
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
  uint64_t rows_matched = 0;  // rows passed to the callback
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
/// `fn(row_id)`; `fn` returns false to stop early. Returns the path taken. `stats` may be null. A probe whose binding fails one of
/// `prune_blooms` is skipped entirely (counted in `stats->bloom_skips`).
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

/// Full-scan iterator with optional constant / in-set filters.
class TableScanIterator : public RowIterator {
 public:
  TableScanIterator(const storage::Table& table,
                    std::vector<ColumnBinding> bindings,
                    std::vector<ColumnInSet> in_filters);

  bool Next(storage::Tuple* out) override;
  int arity() const override { return table_.arity(); }

 private:
  const storage::Table& table_;
  std::vector<ColumnBinding> bindings_;
  std::vector<ColumnInSet> in_filters_;
  storage::RowId next_row_ = 0;
  storage::Tuple row_scratch_;  // disk backend copies the row here
};

}  // namespace xk::exec

#endif  // XK_EXEC_OPERATORS_H_
