// Copyright (c) the XKeyword authors.
//
// Materialized output of a shared subplan (a common join prefix among the
// candidate networks of one query, Section 4's common-subexpression reuse
// lifted from leaf scans to whole subplans). The producer executes the prefix
// once and appends one row of per-step base-table row ids per prefix match;
// every consuming plan then replays the rows — in the producer's enumeration
// order, so results stay byte-identical to re-executing the prefix — through
// its own SubplanReplayIterator or by random access.

#ifndef XK_EXEC_SUBPLAN_SOURCE_H_
#define XK_EXEC_SUBPLAN_SOURCE_H_

#include <vector>

#include "exec/row_block.h"
#include "storage/table.h"

namespace xk::exec {

/// Append-once, replay-many columnar buffer of prefix rows. Column c of row r
/// holds the base-table row id the prefix's step c bound for that match,
/// stored as RowBlock batches so consumers can stream it through the
/// vectorized substrate. Not thread-safe while appending; immutable (and
/// safely shared across threads) once the producer is done.
class MaterializedSubplan {
 public:
  /// `arity` = number of prefix steps; `block_capacity` rows per batch.
  explicit MaterializedSubplan(int arity,
                               size_t block_capacity = RowBlock::kDefaultCapacity);

  /// Appends one prefix row of `arity` per-step row ids.
  void Append(const storage::RowId* step_rows);

  size_t num_rows() const { return num_rows_; }
  int arity() const { return arity_; }
  /// Heap bytes held by the materialization (block buffers included).
  size_t bytes() const { return bytes_; }

  /// Row id bound by step `col` of prefix row `row`.
  storage::RowId At(size_t row, int col) const {
    const RowBlock& b = blocks_[row / block_capacity_];
    return static_cast<storage::RowId>(b.column(col)[row % block_capacity_]);
  }

  const std::vector<RowBlock>& blocks() const { return blocks_; }

 private:
  int arity_;
  size_t block_capacity_;
  size_t num_rows_ = 0;
  size_t bytes_ = 0;
  std::vector<RowBlock> blocks_;
};

/// Replayable block source over a MaterializedSubplan. Each consumer creates
/// its own iterator (the subplan itself is shared and immutable); blocks come
/// out materialized with an identity selection, in append order.
class SubplanReplayIterator : public BlockIterator {
 public:
  /// `subplan` is not owned and must outlive the iterator.
  explicit SubplanReplayIterator(const MaterializedSubplan* subplan)
      : subplan_(subplan) {}

  bool Next(RowBlock* out) override;
  int arity() const override { return subplan_->arity(); }

 private:
  const MaterializedSubplan* subplan_;
  size_t next_block_ = 0;
};

}  // namespace xk::exec

#endif  // XK_EXEC_SUBPLAN_SOURCE_H_
