#include "exec/block_ops.h"

#include <algorithm>
#include <memory>

#include "common/cancel_token.h"

namespace xk::exec {

// --- Kernels -------------------------------------------------------------

namespace {

/// Largest IN-set SelInSet compares against an unrolled ladder.
constexpr size_t kMaxInlineInSet = 4;

/// The compress loop behind every selection kernel: keeps the selected
/// candidates s for which keep(s) holds, in place and in order (the write
/// cursor never passes the read cursor), and returns the survivor count.
template <typename Keep>
size_t SelCompress(RowBlock* block, Keep keep) {
  uint32_t* sel = block->sel.data();
  size_t out = 0;
  for (size_t i = 0; i < block->num_selected; ++i) {
    const uint32_t s = sel[i];
    sel[out] = s;
    out += keep(s) ? 1 : 0;
  }
  block->num_selected = out;
  return out;
}

}  // namespace

size_t SelEqual(const storage::Table& table, RowBlock* block, int column,
                storage::ObjectId value) {
  const storage::RowId* ids = block->row_ids.data();
  if (table.IsPaged()) {
    // Disk backend: rows live on pages, so read them through a run-cached
    // cursor — same survivors, same order.
    storage::TableReadCursor rows(table);
    return SelCompress(
        block, [&](uint32_t s) { return rows.At(ids[s], column) == value; });
  }
  const storage::ObjectId* base = table.RowData();
  const uint64_t arity = static_cast<uint64_t>(table.arity());
  return SelCompress(block, [&](uint32_t s) {
    return base[static_cast<uint64_t>(ids[s]) * arity + column] == value;
  });
}

size_t SelInSet(const storage::Table& table, RowBlock* block, int column,
                const storage::IdSet& set) {
  const storage::RowId* ids = block->row_ids.data();
  if (table.IsPaged()) {
    // Disk backend: hash probe through a run-cached cursor (ladder and hash
    // probe select identical survivors, so this stays byte-identical).
    storage::TableReadCursor rows(table);
    return SelCompress(block, [&](uint32_t s) {
      return set.contains(rows.At(ids[s], column));
    });
  }
  const storage::ObjectId* base = table.RowData();
  const uint64_t arity = static_cast<uint64_t>(table.arity());
  // Small sets (single-keyword containing lists are often 1-4 ids) compare
  // against an unrolled ladder instead of hashing per candidate.
  if (!set.empty() && set.size() <= kMaxInlineInSet) {
    storage::ObjectId vals[kMaxInlineInSet];
    size_t k = 0;
    for (storage::ObjectId v : set) vals[k++] = v;
    return SelCompress(block, [&](uint32_t s) {
      const storage::ObjectId v =
          base[static_cast<uint64_t>(ids[s]) * arity + column];
      int hit = 0;
      for (size_t j = 0; j < k; ++j) hit |= v == vals[j] ? 1 : 0;
      return hit != 0;
    });
  }
  return SelCompress(block, [&](uint32_t s) {
    return set.contains(base[static_cast<uint64_t>(ids[s]) * arity + column]);
  });
}

namespace {

/// Applies every binding and in-set predicate to the block as kernels,
/// short-circuiting once the selection empties.
void ApplyFilters(const storage::Table& table,
                  const std::vector<ColumnBinding>& bindings,
                  const std::vector<ColumnInSet>& in_filters,
                  RowBlock* block) {
  for (const ColumnBinding& f : bindings) {
    if (block->num_selected == 0) return;
    SelEqual(table, block, f.column, f.value);
  }
  for (const ColumnInSet& f : in_filters) {
    if (block->num_selected == 0) return;
    SelInSet(table, block, f.column, *f.set);
  }
}

// --- Scratch-block pool --------------------------------------------------
//
// RunBlockLoop needs a scratch block per probe, but probes nest (the
// nested-loop executors recurse from inside the sink), so one thread-local
// block is not enough: a per-thread stack of blocks, indexed by recursion
// depth, keeps every live probe's block intact and amortizes the allocation
// across all probes a worker ever runs.

struct BlockPool {
  std::vector<std::unique_ptr<RowBlock>> blocks;
  size_t depth = 0;
};

thread_local BlockPool t_block_pool;

class PooledBlock {
 public:
  PooledBlock(int arity, size_t capacity) {
    BlockPool& pool = t_block_pool;
    if (pool.depth == pool.blocks.size()) {
      pool.blocks.push_back(std::make_unique<RowBlock>());
    }
    block_ = pool.blocks[pool.depth++].get();
    block_->Reset(arity, capacity);
  }
  ~PooledBlock() { --t_block_pool.depth; }

  PooledBlock(const PooledBlock&) = delete;
  PooledBlock& operator=(const PooledBlock&) = delete;

  RowBlock& operator*() { return *block_; }

 private:
  RowBlock* block_;
};

// Block-size ramp: the first block of a probe is small so an early-stopping
// sink (top-k) never pays for 1k rows of filtering it will discard; streaming
// consumers reach the full block size within two blocks.
constexpr size_t kBlockRampStart = 64;

}  // namespace

void RunBlockLoop(const storage::Table& table,
                  const std::vector<ColumnBinding>& bindings,
                  const std::vector<ColumnInSet>& in_filters,
                  const ExecOptions& opts, CandidateCursor* cursor,
                  BlockSinkRef fn, ProbeStats* stats) {
  const size_t cap =
      opts.block_size != 0 ? opts.block_size : RowBlock::kDefaultCapacity;
  PooledBlock pooled(table.arity(), cap);
  RowBlock& block = *pooled;
  size_t step = std::min(cap, kBlockRampStart);
  while (true) {
    // One cancellation poll per block instead of per row.
    if (opts.cancel != nullptr && opts.cancel->StopRequested()) return;
    const size_t n = cursor->Fill(block.row_ids.data(), step);
    if (n == 0) return;
    step = std::min(cap, step * 4);
    block.SelectAll(n);
    ApplyFilters(table, bindings, in_filters, &block);
    if (stats != nullptr) {
      stats->rows_scanned += block.size;
      stats->rows_matched += block.num_selected;
    }
    if (block.num_selected != 0 && !fn(block)) return;
  }
}

}  // namespace xk::exec
