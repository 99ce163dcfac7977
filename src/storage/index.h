// Copyright (c) the XKeyword authors.
//
// Secondary indexes over tables. Two physical forms, mirroring what the paper
// tunes on Oracle (Section 5.1):
//  * HashIndex      — single-attribute equality index ("single attribute
//                     indices ... on every attribute").
//  * CompositeIndex — multi-attribute sorted index; with the key being a
//                     prefix of the table's column order this doubles as the
//                     clustering order of an index-organized table
//                     ("clustering is performed using index-organized tables").

#ifndef XK_STORAGE_INDEX_H_
#define XK_STORAGE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/page_store.h"
#include "storage/tuple.h"

namespace xk::storage {

class Table;
class StorageTier;

/// Row positions within a table.
using RowId = uint32_t;

/// Single-column hash index: column value -> row ids.
class HashIndex {
 public:
  HashIndex(const Table& table, int column);

  int column() const { return column_; }

  /// Rows whose indexed column equals `key`, in row order (empty span if
  /// none). Never allocates — a missing key returns a default span, so probe
  /// loops can call this per row without touching the heap.
  std::span<const RowId> Lookup(ObjectId key) const;

  size_t distinct_keys() const { return buckets_.size(); }
  /// Approximate heap footprint, for the space ablation bench.
  size_t MemoryBytes() const;

 private:
  int column_;
  std::unordered_map<ObjectId, std::vector<RowId>> buckets_;
};

/// Split-block-free Bloom filter over ObjectIds. Used by the executor's
/// semi-join pruning: one filter per (join step, probed column) summarizes the
/// column values that survive the step's local keyword/constant filters, so
/// probes carrying a value that cannot match are rejected without touching the
/// table. False positives cost a wasted probe, never a wrong result.
class BloomFilter {
 public:
  /// Sizes the bit array for `expected_keys` at ~`bits_per_key` (rounded up to
  /// a power of two), giving ~1% false positives at the default 10 bits/key.
  explicit BloomFilter(size_t expected_keys, double bits_per_key = 10.0);

  void Add(ObjectId key);
  /// False means "definitely absent"; true means "probably present".
  bool MayContain(ObjectId key) const;

  size_t num_keys_added() const { return num_keys_added_; }
  size_t MemoryBytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
  uint64_t bit_mask_;  // total bits - 1 (bit count is a power of two)
  int num_hashes_;
  size_t num_keys_added_ = 0;
};

/// Multi-attribute sorted index: rows ordered by the key columns; supports
/// range lookup by any key prefix. Lookups return a contiguous run of entries,
/// which is what makes clustered access cheaper than hash probing.
class CompositeIndex {
 public:
  CompositeIndex(const Table& table, std::vector<int> key_columns);

  const std::vector<int>& key_columns() const { return key_columns_; }

  /// True when the entries of every lead-column value are in ascending row
  /// order: the table is clustered and the rest of the key is a prefix of its
  /// clustering key without the lead column, as for the per-direction indexes
  /// of a connection relation. Keyword seeks merge such runs into scan order.
  bool lead_runs_in_row_order() const { return lead_runs_in_row_order_; }

  /// Row ids whose key columns start with `prefix` (prefix.size() <= arity of
  /// the key). The returned span is a contiguous, key-ordered run. Memory
  /// backend only (the span aliases the in-memory ordering).
  std::span<const RowId> LookupPrefix(TupleView prefix) const;

  /// Backend-neutral prefix lookup. Memory backend: identical to the
  /// overload above (`*scratch` untouched). Disk backend: materializes the
  /// matching run from the paged ordering into `*scratch` and returns a span
  /// over it — valid as long as `*scratch` is.
  std::span<const RowId> LookupPrefix(TupleView prefix,
                                      std::vector<RowId>* scratch) const;

  /// Moves the sorted ordering onto pages owned by `tier` (Table::SpillToDisk
  /// calls this for every composite index). Idempotent.
  Status SpillToDisk(StorageTier* tier);
  bool IsPaged() const { return paged_ != nullptr; }
  size_t DiskBytes() const;

  size_t MemoryBytes() const;

 private:
  struct PagedOrder {
    StorageTier* tier;
    PageNo first_page;
    uint32_t entries_per_page;
    size_t num_pages;
  };

  /// Entry `i` of the sorted ordering, pinning its page when spilled.
  RowId OrderAt(size_t i) const;
  /// [lower, upper) of entries whose key starts with `prefix`.
  std::pair<size_t, size_t> PrefixRange(TupleView prefix) const;

  const Table& table_;
  std::vector<int> key_columns_;
  std::vector<RowId> order_;  // row ids sorted by key columns
  size_t num_entries_ = 0;
  bool lead_runs_in_row_order_ = false;
  std::unique_ptr<PagedOrder> paged_;

  // Compares row `row` against `prefix` on the first prefix.size() key cols.
  int ComparePrefix(RowId row, TupleView prefix) const;
};

}  // namespace xk::storage

#endif  // XK_STORAGE_INDEX_H_
