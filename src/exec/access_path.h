// Copyright (c) the XKeyword authors.
//
// The access-path decision and candidate enumeration behind ForEachMatch
// (operators.cc): both its scalar loop and its block loop (block_ops.cc)
// consume one CandidateCursor, so they visit the same rows in the same order.
//
// Paths, in order of preference for a probe:
//   bound path    — clustered range, composite index or hash index on the
//                   bound (join) columns, as ChoosePath picks;
//   keyword seek  — no usable bound column, but an in-set (keyword) filter on
//                   a column that leads the clustering key or a composite
//                   index: look up each value of the smallest such set and
//                   merge the runs into ascending row order;
//   full scan     — everything else, and every probe with use_indexes off.
// Every path yields candidates in ascending row order where the full scan
// would, so results never depend on which one ran.

#ifndef XK_EXEC_ACCESS_PATH_H_
#define XK_EXEC_ACCESS_PATH_H_

#include <span>
#include <utility>
#include <vector>

#include "exec/operators.h"

namespace xk::exec {

// Cost constants, in units of one scanned row (a sequential row through the
// filter kernels).
//
// Keyword-seek cost rule: a value lookup — a binary search plus the range or
// run it adds — costs kSeekLookupCost; a candidate costs kSeekRangeRowCost in
// a clustered range (sequential rows, as in the scan) and kSeekMergeRowCost
// in a merged index run (a random row access plus its share of the heap
// merge). The seek runs only when its lookups plus the exact candidate count
// the lookups return cost less than scanning every row. The constants are
// fitted to seek and scan timings on connection-relation-shaped tables
// (EXPERIMENTS.md, A14).
inline constexpr size_t kSeekLookupCost = 8;
inline constexpr size_t kSeekRangeRowCost = 1;
inline constexpr size_t kSeekMergeRowCost = 4;
//
// A buffer-pool page miss — an 8 KiB pread, its checksum and the frame
// swap — costs kPageMissCost. Timed against scans of the same tables
// (EXPERIMENTS.md, A20): a miss takes 1.2–2.8 us and a scanned row
// 3.5–6 ns unfiltered or 8–24 ns through a keyword filter, so a miss is
// worth 75–380 rows. End to end, 256 beat 128 and tied 384.
inline constexpr size_t kPageMissCost = 256;

/// Resolved bound-path choice: enough to position a cursor later without
/// re-deciding. Splitting choice from positioning keeps the expensive part —
/// the clustered-range search or index lookup — after the Bloom prune (most
/// probes of a pruned plan never touch the table).
struct PathChoice {
  AccessPathKind kind = AccessPathKind::kFullScan;
  size_t prefix_len = 0;  // clustered / composite
  const storage::CompositeIndex* composite = nullptr;
  const storage::HashIndex* hash = nullptr;
  storage::ObjectId hash_key = storage::kInvalidId;
};

/// Allocation-free bound-path decision: the clustering key when it leads
/// with a bound column, else the composite index covering the longest prefix
/// of bound columns (ties broken by build order), else a hash index on a
/// bound column, else a full scan. Performs no index lookups. A kFullScan
/// choice may still become a keyword seek when the cursor is positioned.
PathChoice ChoosePath(const storage::Table& table,
                      const std::vector<ColumnBinding>& bindings,
                      const ExecOptions& opts);

/// True when a bound value is refuted by a prune Bloom (the probe cannot
/// match); counts the skip in `stats` (nullable).
bool BloomPruned(const std::vector<ColumnBinding>& bindings,
                 const std::vector<ColumnBloom>& prune_blooms, ProbeStats* stats);

/// True when row `r` passes every binding and in-set filter.
bool RowPasses(const storage::Table& table, storage::RowId r,
               const std::vector<ColumnBinding>& bindings,
               const std::vector<ColumnInSet>& in_filters);

/// Candidate row ids of one probe, in the order the probe must visit them.
/// Not copyable: a paged index run is a span into the cursor's own buffer.
class CandidateCursor {
 public:
  CandidateCursor() = default;
  CandidateCursor(const CandidateCursor&) = delete;
  CandidateCursor& operator=(const CandidateCursor&) = delete;

  /// Positions the cursor on `choice`. A full-scan choice turns into a
  /// keyword seek when `opts.use_indexes` is on, the table is in memory, and
  /// the fixed cost rule in access_path.cc, applied to the exact run lengths
  /// of the lookups, prefers it to the scan. Returns the path taken.
  AccessPathKind Init(const PathChoice& choice, const storage::Table& table,
                      const std::vector<ColumnBinding>& bindings,
                      const std::vector<ColumnInSet>& in_filters,
                      const ExecOptions& opts);

  /// Candidates not yet consumed.
  size_t Remaining() const { return remaining_; }

  /// Estimated cost of the whole enumeration, in scanned rows: for a keyword
  /// seek its lookups plus its candidates at their row cost, as the seek
  /// rule charges them; otherwise the candidate count. Meaningful right
  /// after Init.
  size_t Cost() const { return seek_cost_ != 0 ? seek_cost_ : remaining_; }

  /// Writes up to `cap` next candidates to `out`; returns the count.
  size_t Fill(storage::RowId* out, size_t cap);

 private:
  /// Replaces a full scan by a keyword seek when the cost rule says so.
  bool TrySeek(const storage::Table& table,
               const std::vector<ColumnInSet>& in_filters);
  size_t FillMerge(storage::RowId* out, size_t cap);
  void SiftDown();

  enum class Mode { kRanges, kSpan, kMerge };
  Mode mode_ = Mode::kRanges;
  size_t remaining_ = 0;
  size_t seek_cost_ = 0;  // set by a successful TrySeek
  // kRanges: the current range [next_, end_), then ranges_[range_pos_..]
  // (a keyword seek on the clustering key: disjoint, sorted by start).
  storage::RowId next_ = 0;
  storage::RowId end_ = 0;
  std::vector<std::pair<storage::RowId, storage::RowId>> ranges_;
  size_t range_pos_ = 0;
  // kSpan: an index run; `owned_` backs it when the index is paged.
  std::span<const storage::RowId> span_;
  std::vector<storage::RowId> owned_;
  // kMerge: ascending, pairwise disjoint index runs (a keyword seek through
  // a composite index), as a min-heap on each run's first row.
  std::vector<std::span<const storage::RowId>> heap_;
};

}  // namespace xk::exec

#endif  // XK_EXEC_ACCESS_PATH_H_
