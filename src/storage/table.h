// Copyright (c) the XKeyword authors.
//
// Relational tables holding the connection relations of Section 5. Rows are
// fixed-arity ObjectId tuples stored row-major — in one flat array (memory
// backend, the default) or on fixed-size pages behind the pinning buffer pool
// (disk backend, SpillToDisk). Rows never straddle a page, so any row run
// within one page is contiguous in the pinned frame. A table may be
// index-organized ("clustered") on a column order and may carry any number of
// hash / composite secondary indexes — the decomposition policies of Section 7
// differ exactly in which of these they create.

#ifndef XK_STORAGE_TABLE_H_
#define XK_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/index.h"
#include "storage/mapped_allocator.h"
#include "storage/tuple.h"

namespace xk::storage {

class StorageTier;

/// A relation with named ObjectId columns.
class Table {
 public:
  Table(std::string name, std::vector<std::string> column_names);

  // Movable despite the distinct-count mutex (the moved-to table gets a fresh
  // one). Moving is only safe before the table is shared across threads or
  // has secondary indexes, same as before the mutex existed.
  Table(Table&& other) noexcept
      : name_(std::move(other.name_)),
        column_names_(std::move(other.column_names_)),
        arity_(other.arity_),
        rows_(std::move(other.rows_)),
        num_rows_(other.num_rows_),
        frozen_(other.frozen_),
        clustering_(std::move(other.clustering_)),
        hash_indexes_(std::move(other.hash_indexes_)),
        composite_indexes_(std::move(other.composite_indexes_)),
        paged_(std::move(other.paged_)),
        distinct_cache_(std::move(other.distinct_cache_)) {}

  const std::string& name() const { return name_; }
  int arity() const { return static_cast<int>(column_names_.size()); }
  const std::vector<std::string>& column_names() const { return column_names_; }

  /// Index of the column called `name`, or an error.
  Result<int> ColumnIndex(const std::string& name) const;

  /// Appends a row. Fails if the arity does not match or the table is frozen.
  Status Append(TupleView row);
  Status Append(const Tuple& row) { return Append(TupleView(row)); }

  size_t NumRows() const { return num_rows_; }

  /// Read access to row `r` (no bounds check beyond debug builds). Memory
  /// backend only — the returned view aliases the flat array, which a paged
  /// table no longer has. Paged-compatible callers use RowInto.
  TupleView Row(RowId r) const {
    XK_CHECK(paged_ == nullptr);
    return TupleView(&rows_[static_cast<size_t>(r) * arity_], arity_);
  }

  /// Backend-neutral row read. Memory backend: a zero-copy view into the
  /// flat array (`*scratch` untouched). Disk backend: copies the row into
  /// `*scratch` under a page pin and returns a view of it — the view stays
  /// valid as long as `*scratch` does, independent of later evictions.
  TupleView RowInto(RowId r, Tuple* scratch) const {
    if (paged_ == nullptr) {
      return TupleView(&rows_[static_cast<size_t>(r) * arity_], arity_);
    }
    PagedRowInto(r, scratch);
    return TupleView(*scratch);
  }

  ObjectId At(RowId r, int col) const {
    if (paged_ == nullptr) {
      return rows_[static_cast<size_t>(r) * arity_ + static_cast<size_t>(col)];
    }
    return PagedAt(r, col);
  }

  /// Raw row-major storage (`arity()` ids per row). Memory backend only;
  /// the selection kernels fall back to TableReadCursor when paged.
  const ObjectId* RowData() const {
    XK_CHECK(paged_ == nullptr);
    return rows_.data();
  }

  // --- Physical design -------------------------------------------------

  /// Sorts rows by the given column order (index-organized table). Must be
  /// called before any secondary index is built. Lookups on a prefix of the
  /// clustering key then return contiguous row ranges.
  Status Cluster(std::vector<int> key_columns);

  bool IsClustered() const { return clustering_.has_value(); }
  const std::vector<int>& clustering_key() const { return *clustering_; }

  /// Row-id range [begin, end) whose clustering key starts with `prefix`.
  /// Requires IsClustered() and prefix no longer than the clustering key.
  /// On a paged table the in-RAM page fences locate the (at most two) pages
  /// the range's bounds lie on, and only those are pinned.
  std::pair<RowId, RowId> ClusteredRange(TupleView prefix) const;

  /// Builds (or returns the existing) single-attribute hash index on `column`.
  Status BuildHashIndex(int column);
  /// Builds a multi-attribute sorted index.
  Status BuildCompositeIndex(std::vector<int> key_columns);

  /// The hash index on `column`, or nullptr.
  const HashIndex* GetHashIndex(int column) const;
  /// A composite index whose key starts with `columns` (exact prefix match of
  /// the requested columns), or nullptr.
  const CompositeIndex* GetCompositeIndex(const std::vector<int>& columns) const;

  /// All composite indexes, in build order (access-path selection scans these
  /// for the longest usable key prefix).
  const std::vector<std::unique_ptr<CompositeIndex>>& composite_indexes() const {
    return composite_indexes_;
  }

  bool HasAnyIndex() const { return !hash_indexes_.empty() || !composite_indexes_.empty(); }

  /// Disallows further appends (indexes stay consistent); idempotent.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  // --- Disk backend ----------------------------------------------------

  /// Moves the frozen rows (and every composite index ordering) onto pages
  /// owned by `tier`, freeing the in-memory copies; reads thereafter pin
  /// pages through the tier's buffer pool. Requires Freeze(); idempotent.
  Status SpillToDisk(StorageTier* tier);

  bool IsPaged() const { return paged_ != nullptr; }
  /// Rows per page in the paged layout (rows never straddle pages).
  uint32_t RowsPerPage() const;
  /// Page-file bytes consumed by the spilled rows (0 when in memory).
  size_t DiskBytes() const;

  /// Heap footprint of rows + indexes, for the space ablation bench.
  /// Spilled rows / orderings no longer count — see DiskBytes() — but their
  /// in-RAM page fences do.
  size_t MemoryBytes() const;

  /// Distinct values in `column` (computed lazily, cached after Freeze()).
  /// Safe to call concurrently from multiple threads.
  size_t DistinctCount(int column) const;

 private:
  friend class HashIndex;
  friend class CompositeIndex;
  friend class TableReadCursor;

  struct PagedRows {
    StorageTier* tier;
    PageNo first_page;
    uint32_t rows_per_page;
    size_t num_pages;
    // Clustering key of each page's first row, page after page (empty when
    // the table is not clustered).
    std::vector<ObjectId> fences;
  };

  std::pair<RowId, RowId> PagedClusteredRange(TupleView prefix) const;
  ObjectId PagedAt(RowId r, int col) const;
  void PagedRowInto(RowId r, Tuple* scratch) const;
  /// Pins the page holding `r` and exposes its contiguous row run:
  /// rows [begin, end) at `base[(r - begin) * arity + c]`.
  PageHandle PinRun(RowId r, const ObjectId** base, RowId* begin,
                    RowId* end) const;

  std::string name_;
  std::vector<std::string> column_names_;
  int arity_;
  MappedVector<ObjectId> rows_;  // row-major, arity_ ids per row
  size_t num_rows_ = 0;
  bool frozen_ = false;
  std::optional<std::vector<int>> clustering_;
  std::vector<std::unique_ptr<HashIndex>> hash_indexes_;
  std::vector<std::unique_ptr<CompositeIndex>> composite_indexes_;
  std::unique_ptr<PagedRows> paged_;
  /// Lazily-filled per-column distinct counts. DistinctCount may be called
  /// from concurrent query threads, so both the has_value check and the fill
  /// must happen under distinct_mu_ (an unguarded optional write raced with
  /// readers before).
  mutable std::mutex distinct_mu_;
  mutable std::vector<std::optional<size_t>> distinct_cache_;
};

/// Run-cached read cursor over one table, for loops that touch many rows.
/// Memory backend: initializes once to the whole flat array, after which
/// every At() is a bounds-checked direct load — the hot path is unchanged.
/// Disk backend: holds the pin on the page of the last touched row, so
/// sequential scans pay one pool pin per page instead of one per value.
/// Not thread-safe; keep one cursor per loop.
class TableReadCursor {
 public:
  explicit TableReadCursor(const Table& table);

  ObjectId At(RowId r, int col) {
    if (r >= begin_ && r < end_) {
      return base_[static_cast<size_t>(r - begin_) * arity_ +
                   static_cast<size_t>(col)];
    }
    return Refill(r, col);
  }

 private:
  ObjectId Refill(RowId r, int col);

  const Table& table_;
  PageHandle pin_;
  const ObjectId* base_ = nullptr;
  RowId begin_ = 0;
  RowId end_ = 0;
  size_t arity_;
};

}  // namespace xk::storage

#endif  // XK_STORAGE_TABLE_H_
