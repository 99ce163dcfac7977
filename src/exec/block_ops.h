// Copyright (c) the XKeyword authors.
//
// Vectorized access paths: the batch-at-a-time siblings of operators.h.
// Candidates stream through RowBlocks; predicates run as selection-vector
// kernels over whole blocks (allocation-free once warm), cancellation is
// polled once per block, and statistics are bumped once per block. Candidate
// enumeration order matches the row-at-a-time path exactly, so results are
// byte-identical.

#ifndef XK_EXEC_BLOCK_OPS_H_
#define XK_EXEC_BLOCK_OPS_H_

#include <functional>
#include <type_traits>
#include <vector>

#include "exec/access_path.h"
#include "exec/operators.h"
#include "exec/row_block.h"

namespace xk::exec {

// --- Selection-vector kernels -------------------------------------------
//
// Each kernel compacts block->sel in place to the selected candidates that
// also pass the predicate, preserving ascending order, and returns the
// survivor count. No allocation: each is one branchless compress loop.

/// Keeps candidates whose `column` equals `value`.
size_t SelEqual(const storage::Table& table, RowBlock* block, int column,
                storage::ObjectId value);

/// Keeps candidates whose `column` value is in `set`. Sets of up to four
/// distinct values run an unrolled compare ladder; larger sets probe the
/// hash set per candidate.
size_t SelInSet(const storage::Table& table, RowBlock* block, int column,
                const storage::IdSet& set);

// --- Batch probe ---------------------------------------------------------

/// Non-owning callable reference for block sinks: avoids the per-probe
/// std::function allocation the batch path exists to eliminate.
class BlockSinkRef {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, BlockSinkRef>>>
  BlockSinkRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, const RowBlock& b) {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(b);
        }) {}

  bool operator()(const RowBlock& block) const { return call_(obj_, block); }

 private:
  void* obj_;
  bool (*call_)(void*, const RowBlock&);
};

/// Batch ForEachMatch: enumerates candidates along the same access path the
/// row API would take, filters each block with the kernels above, and hands
/// every block with >= 1 survivor to `fn` (selected rows are the matches,
/// in candidate order). `fn` returns false to stop early. Statistics count
/// whole blocks: an early-stopping sink still pays for the block it saw —
/// block sizes ramp up from a small first block so that cost stays bounded.
AccessPathKind ForEachMatchBlock(const storage::Table& table,
                                 const std::vector<ColumnBinding>& bindings,
                                 const std::vector<ColumnInSet>& in_filters,
                                 const std::vector<ColumnBloom>& prune_blooms,
                                 const ExecOptions& opts, BlockSinkRef fn,
                                 ProbeStats* stats);

/// Candidate count at or below which the vectorized row-sink probe runs a
/// fused scalar loop instead of block kernels: index probes average a handful
/// of rows, where block setup costs more than the kernels save.
inline constexpr size_t kScalarProbeThreshold = 64;

/// Row-sink batch probe: the engine entry point behind
/// ExecOptions::vectorized. Adaptive — small candidate sets (known from the
/// access path, <= kScalarProbeThreshold) run a fused scalar loop; large
/// scans stream ramped blocks through the kernels. Cursor setup builds key
/// prefixes in a stack buffer, so a probe performs no allocation at all once
/// the thread-local block pool is warm. Match order, emitted rows, and
/// statistics are identical to the row path except for early-stop scan
/// counts, which are block-granular on the block regime.
AccessPathKind ForEachMatchRows(const storage::Table& table,
                                const std::vector<ColumnBinding>& bindings,
                                const std::vector<ColumnInSet>& in_filters,
                                const std::vector<ColumnBloom>& prune_blooms,
                                const ExecOptions& opts,
                                const std::function<bool(storage::RowId)>& fn,
                                ProbeStats* stats);

// --- Batch operators -----------------------------------------------------

/// Batch scan/probe over one table — full scan, clustered range, composite
/// range, hash lookup or keyword seek, chosen exactly as ForEachMatch
/// chooses — producing materialized blocks of the surviving rows.
class ScanBlockIterator : public BlockIterator {
 public:
  ScanBlockIterator(const storage::Table& table,
                    std::vector<ColumnBinding> bindings,
                    std::vector<ColumnInSet> in_filters, ExecOptions opts = {});

  bool Next(RowBlock* out) override;
  int arity() const override { return table_.arity(); }
  AccessPathKind path() const { return path_; }

 private:
  const storage::Table& table_;
  std::vector<ColumnBinding> bindings_;
  std::vector<ColumnInSet> in_filters_;
  ExecOptions opts_;
  AccessPathKind path_;
  CandidateCursor cursor_;  // positioned at construction
};

/// Vectorized index-nested-loop join: probes `inner` once per selected outer
/// row (via the batch probe path) and emits combined outer++inner blocks.
/// Output order is outer order, inner match order within one outer row; the
/// produced blocks' row_ids carry the inner match rows.
class IndexNestedLoopBlockIterator : public BlockIterator {
 public:
  /// inner.column == outer.column join condition.
  struct JoinKey {
    int inner_column;
    int outer_column;
  };

  /// `outer` is not owned and must outlive the iterator.
  IndexNestedLoopBlockIterator(BlockIterator* outer, const storage::Table& inner,
                               std::vector<JoinKey> keys,
                               std::vector<ColumnInSet> inner_in_filters = {},
                               ExecOptions opts = {});

  bool Next(RowBlock* out) override;
  int arity() const override { return outer_->arity() + inner_.arity(); }
  const ProbeStats& stats() const { return stats_; }

  /// Semi-join prune Blooms keyed by inner join column: outer rows whose join
  /// value is definitely absent from the inner side are dropped from the
  /// selection (BloomFilter::MayContain per selected row) when each outer
  /// block arrives, before any per-row probe. Each pruned row counts as one
  /// bloom-skipped probe, matching the per-row BloomPruned accounting.
  void set_inner_blooms(std::vector<ColumnBloom> blooms) {
    blooms_ = std::move(blooms);
  }

 private:
  /// Compacts the fresh outer block's selection through blooms_.
  void PruneOuterBlock();

  /// Appends combined rows for matches_[match_pos_..] of the current outer
  /// row until `out` is full or the matches are consumed.
  void EmitMatches(RowBlock* out);

  BlockIterator* outer_;
  const storage::Table& inner_;
  std::vector<JoinKey> keys_;
  std::vector<ColumnInSet> in_filters_;
  std::vector<ColumnBloom> blooms_;
  ExecOptions opts_;
  ProbeStats stats_;

  RowBlock outer_block_;
  size_t outer_pos_ = 0;   // next outer row to probe
  bool outer_valid_ = false;
  bool outer_drained_ = false;
  std::vector<ColumnBinding> bindings_;     // probe scratch, hoisted
  std::vector<storage::RowId> matches_;     // inner matches of the outer row
  size_t match_pos_ = 0;                    // unconsumed carry into next block
  size_t match_outer_ = 0;                  // outer row the carry belongs to
};

}  // namespace xk::exec

#endif  // XK_EXEC_BLOCK_OPS_H_
