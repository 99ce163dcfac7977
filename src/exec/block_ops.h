// Copyright (c) the XKeyword authors.
//
// The block half of the probe behind ForEachMatch (operators.h). Candidates
// stream through RowBlocks; predicates run as selection-vector kernels over
// whole blocks (allocation-free once warm), cancellation is polled once per
// block, and statistics are bumped once per block. Selections stay ascending,
// so matches leave in candidate order.

#ifndef XK_EXEC_BLOCK_OPS_H_
#define XK_EXEC_BLOCK_OPS_H_

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

// --- Block loop ----------------------------------------------------------

/// Non-owning callable reference for block sinks: avoids the per-probe
/// std::function allocation the block loop exists to eliminate.
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

/// Candidate count at or below which ForEachMatch runs a fused scalar loop
/// instead of block kernels: index probes average a handful of rows, where
/// block setup costs more than the kernels save.
inline constexpr size_t kScalarProbeThreshold = 64;

/// Streams the cursor's remaining candidates through the filter kernels in
/// blocks and hands every block with >= 1 survivor to `fn` (selected rows
/// are the matches, in candidate order); `fn` returns false to stop. Block
/// sizes ramp up from 64 rows to `opts.block_size`, so an early-stopping sink
/// never filters a full block it will discard. Counts whole blocks into
/// `stats` (nullable). Blocks come from a thread-local pool indexed by
/// nesting depth, because probes nest (nested loops recurse from the sink).
void RunBlockLoop(const storage::Table& table,
                  const std::vector<ColumnBinding>& bindings,
                  const std::vector<ColumnInSet>& in_filters,
                  const ExecOptions& opts, CandidateCursor* cursor,
                  BlockSinkRef fn, ProbeStats* stats);

}  // namespace xk::exec

#endif  // XK_EXEC_BLOCK_OPS_H_
