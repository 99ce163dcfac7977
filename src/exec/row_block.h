// Copyright (c) the XKeyword authors.
//
// Fixed-capacity columnar batch (MonetDB/X100 style). The probe filters its
// candidates a block at a time (block_ops.h), so predicate checks,
// statistics and cancellation polls amortize over up to ~1k rows and the
// inner loops run over flat arrays with no per-row allocation; a
// MaterializedSubplan (subplan_source.h) stores its rows in blocks too.

#ifndef XK_EXEC_ROW_BLOCK_H_
#define XK_EXEC_ROW_BLOCK_H_

#include <cstdint>
#include <vector>

#include "storage/index.h"
#include "storage/value.h"

namespace xk::exec {

/// Fixed-capacity columnar batch.
///
/// Candidate rows: `row_ids[0..size)` name base-table rows (for scans and
/// probes); `sel[0..num_selected)` indexes the candidates that survived the
/// predicates applied so far, always in ascending order, so emission order is
/// candidate order.
///
/// Values: `columns` is one flat ObjectId buffer, column-major
/// (`column(c)[i]`), allocated only by EnsureColumnBuffer (a probe's blocks
/// never need it; a MaterializedSubplan writes its rows there).
struct RowBlock {
  static constexpr size_t kDefaultCapacity = 1024;

  /// Sizes the block for `arity` columns of up to `capacity` rows. Buffers
  /// only grow — a pooled block reused across probes never reallocates once
  /// warm. The column buffer stays unallocated until EnsureColumnBuffer.
  void Reset(int arity_in, size_t capacity_in = kDefaultCapacity) {
    arity = arity_in;
    capacity = capacity_in;
    if (row_ids.size() < capacity) row_ids.resize(capacity);
    if (sel.size() < capacity) sel.resize(capacity);
    size = 0;
    num_selected = 0;
  }

  /// Declares `n` loaded candidates and selects all of them (identity).
  void SelectAll(size_t n) {
    size = n;
    num_selected = n;
    for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  }

  storage::ObjectId* column(int c) {
    return columns.data() + static_cast<size_t>(c) * capacity;
  }
  const storage::ObjectId* column(int c) const {
    return columns.data() + static_cast<size_t>(c) * capacity;
  }

  /// Grows the flat column buffer to arity * capacity (never shrinks).
  void EnsureColumnBuffer() {
    if (columns.size() < static_cast<size_t>(arity) * capacity) {
      columns.resize(static_cast<size_t>(arity) * capacity);
    }
  }

  int arity = 0;
  size_t capacity = 0;
  size_t size = 0;          // candidate rows loaded
  size_t num_selected = 0;  // survivors in sel[0..num_selected)
  std::vector<storage::RowId> row_ids;
  std::vector<uint32_t> sel;
  std::vector<storage::ObjectId> columns;  // column-major, arity * capacity
};

}  // namespace xk::exec

#endif  // XK_EXEC_ROW_BLOCK_H_
