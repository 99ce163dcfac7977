#include "exec/subplan_source.h"

namespace xk::exec {

MaterializedSubplan::MaterializedSubplan(int arity, size_t block_capacity)
    : arity_(arity), block_capacity_(block_capacity == 0
                                         ? RowBlock::kDefaultCapacity
                                         : block_capacity) {}

void MaterializedSubplan::Append(const storage::RowId* step_rows) {
  const size_t in_block = num_rows_ % block_capacity_;
  if (in_block == 0) {
    blocks_.emplace_back();
    RowBlock& b = blocks_.back();
    b.Reset(arity_, block_capacity_);
    b.EnsureColumnBuffer();
    bytes_ += b.row_ids.capacity() * sizeof(storage::RowId) +
              b.sel.capacity() * sizeof(uint32_t) +
              b.columns.capacity() * sizeof(storage::ObjectId);
  }
  RowBlock& b = blocks_.back();
  for (int c = 0; c < arity_; ++c) {
    b.column(c)[in_block] = static_cast<storage::ObjectId>(step_rows[c]);
  }
  ++num_rows_;
}

}  // namespace xk::exec
