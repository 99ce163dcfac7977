#include "exec/block_ops.h"

#include <algorithm>
#include <memory>

#include "common/cancel_token.h"
#include "common/logging.h"
#include "common/simd.h"

namespace xk::exec {

// --- Kernels -------------------------------------------------------------

size_t SelEqual(const storage::Table& table, RowBlock* block, int column,
                storage::ObjectId value, bool force_scalar) {
  if (table.IsPaged()) {
    // Disk backend: rows live on pages, not in one flat array, so the SIMD
    // gather base does not exist. Run the scalar compress through a
    // run-cached cursor — same survivors, same order.
    storage::TableReadCursor rows(table);
    uint32_t* sel = block->sel.data();
    const storage::RowId* ids = block->row_ids.data();
    size_t out = 0;
    for (size_t i = 0; i < block->num_selected; ++i) {
      const uint32_t s = sel[i];
      sel[out] = s;
      out += rows.At(ids[s], column) == value ? 1 : 0;
    }
    block->num_selected = out;
    return out;
  }
  const size_t out = simd::SelCompressEqual(
      table.RowData(), static_cast<uint64_t>(table.arity()),
      static_cast<uint64_t>(column), block->row_ids.data(), block->sel.data(),
      block->num_selected, value, simd::KernelLevel(force_scalar));
  block->num_selected = out;
  return out;
}

size_t SelInSet(const storage::Table& table, RowBlock* block, int column,
                const storage::IdSet& set, bool force_scalar) {
  uint32_t* sel = block->sel.data();
  if (table.IsPaged()) {
    // Disk backend: scalar probe through a run-cached cursor (ladder and
    // hash probe select identical survivors, so this stays byte-identical).
    storage::TableReadCursor rows(table);
    const storage::RowId* ids = block->row_ids.data();
    size_t out = 0;
    for (size_t i = 0; i < block->num_selected; ++i) {
      const uint32_t s = sel[i];
      sel[out] = s;
      out += set.contains(rows.At(ids[s], column)) ? 1 : 0;
    }
    block->num_selected = out;
    return out;
  }
  // Small sets (single-keyword containing lists are often 1-4 ids) compare
  // against an unrolled ladder instead of hashing per candidate; the ladder
  // is the vectorizable form.
  if (!set.empty() && set.size() <= simd::kMaxInlineInSet) {
    int64_t vals[simd::kMaxInlineInSet];
    size_t k = 0;
    for (storage::ObjectId v : set) vals[k++] = v;
    const size_t out = simd::SelCompressInSet(
        table.RowData(), static_cast<uint64_t>(table.arity()),
        static_cast<uint64_t>(column), block->row_ids.data(), sel,
        block->num_selected, vals, k, simd::KernelLevel(force_scalar));
    block->num_selected = out;
    return out;
  }
  const storage::RowId* rows = block->row_ids.data();
  size_t out = 0;
  for (size_t i = 0; i < block->num_selected; ++i) {
    const uint32_t s = sel[i];
    sel[out] = s;
    out += set.contains(table.At(rows[s], column)) ? 1 : 0;
  }
  block->num_selected = out;
  return out;
}

namespace {

/// Applies every binding and in-set predicate to the block as kernels,
/// short-circuiting once the selection empties.
void ApplyFilters(const storage::Table& table,
                  const std::vector<ColumnBinding>& bindings,
                  const std::vector<ColumnInSet>& in_filters,
                  const ExecOptions& opts, RowBlock* block) {
  for (const ColumnBinding& f : bindings) {
    if (block->num_selected == 0) return;
    SelEqual(table, block, f.column, f.value, opts.force_scalar_kernels);
  }
  for (const ColumnInSet& f : in_filters) {
    if (block->num_selected == 0) return;
    SelInSet(table, block, f.column, *f.set, opts.force_scalar_kernels);
  }
}

// --- Scratch-block pool --------------------------------------------------
//
// ForEachMatchBlock needs a scratch block per probe, but probes nest (the
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

size_t EffectiveBlockSize(const ExecOptions& opts) {
  return opts.block_size != 0 ? opts.block_size : RowBlock::kDefaultCapacity;
}

// Block-size ramp: the first block of a probe is small so an early-stopping
// sink (top-k) never pays for 1k rows of filtering it will discard; streaming
// consumers reach the full block size within two blocks.
constexpr size_t kBlockRampStart = 64;

/// Streams the cursor's remaining candidates through the filter kernels in
/// ramped blocks and hands each surviving block to `fn`.
void RunBlockLoop(const storage::Table& table,
                  const std::vector<ColumnBinding>& bindings,
                  const std::vector<ColumnInSet>& in_filters,
                  const ExecOptions& opts, CandidateCursor* cursor,
                  BlockSinkRef fn, ProbeStats* stats) {
  const size_t cap = EffectiveBlockSize(opts);
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
    ApplyFilters(table, bindings, in_filters, opts, &block);
    if (stats != nullptr) {
      stats->rows_scanned += block.size;
      stats->rows_matched += block.num_selected;
    }
    if (block.num_selected != 0 && !fn(block)) return;
  }
}

}  // namespace

// --- Batch probe ---------------------------------------------------------

AccessPathKind ForEachMatchBlock(const storage::Table& table,
                                 const std::vector<ColumnBinding>& bindings,
                                 const std::vector<ColumnInSet>& in_filters,
                                 const std::vector<ColumnBloom>& prune_blooms,
                                 const ExecOptions& opts, BlockSinkRef fn,
                                 ProbeStats* stats) {
  if (stats != nullptr) ++stats->probes;
  const PathChoice choice = ChoosePath(table, bindings, opts);
  if (BloomPruned(bindings, prune_blooms, stats)) return choice.kind;
  CandidateCursor cursor;
  const AccessPathKind kind = cursor.Init(choice, table, bindings, in_filters, opts);
  RunBlockLoop(table, bindings, in_filters, opts, &cursor, fn, stats);
  return kind;
}

AccessPathKind ForEachMatchRows(const storage::Table& table,
                                const std::vector<ColumnBinding>& bindings,
                                const std::vector<ColumnInSet>& in_filters,
                                const std::vector<ColumnBloom>& prune_blooms,
                                const ExecOptions& opts,
                                const std::function<bool(storage::RowId)>& fn,
                                ProbeStats* stats) {
  if (stats != nullptr) ++stats->probes;
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

// --- ScanBlockIterator ---------------------------------------------------

ScanBlockIterator::ScanBlockIterator(const storage::Table& table,
                                     std::vector<ColumnBinding> bindings,
                                     std::vector<ColumnInSet> in_filters,
                                     ExecOptions opts)
    : table_(table),
      bindings_(std::move(bindings)),
      in_filters_(std::move(in_filters)),
      opts_(opts) {
  path_ = cursor_.Init(ChoosePath(table_, bindings_, opts_), table_, bindings_,
                       in_filters_, opts_);
}

bool ScanBlockIterator::Next(RowBlock* out) {
  const size_t cap = EffectiveBlockSize(opts_);
  out->Reset(table_.arity(), cap);
  while (true) {
    if (opts_.cancel != nullptr && opts_.cancel->StopRequested()) return false;
    const size_t n = cursor_.Fill(out->row_ids.data(), cap);
    if (n == 0) return false;
    out->SelectAll(n);
    ApplyFilters(table_, bindings_, in_filters_, opts_, out);
    if (out->num_selected == 0) continue;  // all-filtered block: keep pulling
    out->Materialize(table_);
    return true;
  }
}

// --- IndexNestedLoopBlockIterator ---------------------------------------

IndexNestedLoopBlockIterator::IndexNestedLoopBlockIterator(
    BlockIterator* outer, const storage::Table& inner, std::vector<JoinKey> keys,
    std::vector<ColumnInSet> inner_in_filters, ExecOptions opts)
    : outer_(outer),
      inner_(inner),
      keys_(std::move(keys)),
      in_filters_(std::move(inner_in_filters)),
      opts_(opts) {
  bindings_.reserve(keys_.size());
}

void IndexNestedLoopBlockIterator::PruneOuterBlock() {
  if (blooms_.empty()) return;
  const size_t before = outer_block_.num_selected;
  for (const ColumnBloom& pb : blooms_) {
    if (outer_block_.num_selected == 0) break;
    for (const JoinKey& k : keys_) {
      if (k.inner_column != pb.column) continue;
      outer_block_.num_selected = pb.bloom->MayContainBlock(
          outer_block_.column(k.outer_column), outer_block_.sel.data(),
          outer_block_.num_selected, opts_.force_scalar_kernels);
    }
  }
  // Each pruned outer row is a probe the Bloom rejected, exactly as the
  // per-row path would have counted it.
  const size_t pruned = before - outer_block_.num_selected;
  stats_.probes += pruned;
  stats_.bloom_skips += pruned;
}

void IndexNestedLoopBlockIterator::EmitMatches(RowBlock* out) {
  const int outer_arity = outer_->arity();
  const int inner_arity = inner_.arity();
  while (match_pos_ < matches_.size() && out->size < out->capacity) {
    const storage::RowId r = matches_[match_pos_++];
    const size_t i = out->size++;
    out->row_ids[i] = r;
    for (int c = 0; c < outer_arity; ++c) {
      out->column(c)[i] = outer_block_.column(c)[match_outer_];
    }
    for (int c = 0; c < inner_arity; ++c) {
      out->column(outer_arity + c)[i] = inner_.At(r, c);
    }
  }
}

bool IndexNestedLoopBlockIterator::Next(RowBlock* out) {
  const size_t cap = EffectiveBlockSize(opts_);
  out->Reset(arity(), cap);
  out->EnsureColumnBuffer();
  out->size = 0;

  while (out->size < cap) {
    if (match_pos_ < matches_.size()) {
      EmitMatches(out);
      continue;
    }
    if (!outer_valid_ || outer_pos_ >= outer_block_.num_selected) {
      if (outer_drained_ || !outer_->Next(&outer_block_)) {
        outer_drained_ = true;
        break;
      }
      outer_valid_ = true;
      outer_pos_ = 0;
      PruneOuterBlock();
      continue;
    }
    // Indirect through sel: identity unless the Bloom prune compacted it.
    const size_t orow = outer_block_.sel[outer_pos_++];
    bindings_.clear();
    for (const JoinKey& k : keys_) {
      bindings_.push_back(
          ColumnBinding{k.inner_column, outer_block_.column(k.outer_column)[orow]});
    }
    matches_.clear();
    ForEachMatch(inner_, bindings_, in_filters_, {}, opts_,
                 [&](storage::RowId r) {
                   matches_.push_back(r);
                   return true;
                 },
                 &stats_);
    match_pos_ = 0;
    match_outer_ = orow;
  }

  if (out->size == 0) return false;
  out->SelectAll(out->size);
  return true;
}

}  // namespace xk::exec
