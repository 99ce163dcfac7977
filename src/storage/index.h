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
#include "storage/mapped_allocator.h"
#include "storage/page_store.h"
#include "storage/tuple.h"

namespace xk::storage {

class Table;
class StorageTier;

/// Row positions within a table.
using RowId = uint32_t;

/// Stable sort of `rows` by the values of `key_columns` in `table` (most
/// significant first): afterwards `rows` is in exactly the order a stable
/// comparison sort on those columns gives, ties in their incoming order.
/// LSD radix sort: one stable counting pass per digit, least significant
/// column first, with the digit width taken from the column's observed value
/// range (one pass up to 2^16 distinct offsets). A column that is constant or
/// already in order over `rows` costs one read and no pass.
void StableRadixSortRows(const Table& table, std::span<const int> key_columns,
                         std::span<RowId> rows);

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
  /// backend only (the span aliases the in-memory ordering); a lookup
  /// binary-searches the ordering, reading each probed entry's key from the
  /// table.
  std::span<const RowId> LookupPrefix(TupleView prefix) const;

  /// Backend-neutral prefix lookup. Memory backend: identical to the
  /// overload above (`*scratch` untouched). Disk backend: copies the matching
  /// run from the paged ordering into `*scratch` and returns a span over it —
  /// valid as long as `*scratch` is. The lead column's run is found from the
  /// in-RAM page fences and the lead keys on the index pages, so a
  /// one-column lookup pins the pages its run lies on plus at most the page
  /// before, and reads no table row; each further prefix column narrows the
  /// run by a binary search that reads table rows.
  std::span<const RowId> LookupPrefix(TupleView prefix,
                                      std::vector<RowId>* scratch) const;

  /// Moves the sorted ordering onto pages owned by `tier` (Table::SpillToDisk
  /// calls this for every composite index). Each page holds
  /// `[n x lead ObjectId][n x RowId]`; the lead key of every page's first
  /// entry stays in RAM. Requires the table's rows still in memory.
  /// Idempotent.
  Status SpillToDisk(StorageTier* tier);
  bool IsPaged() const { return paged_ != nullptr; }
  size_t DiskBytes() const;

  /// Heap footprint: the ordering in memory; once spilled, the page fences.
  size_t MemoryBytes() const;

 private:
  struct PagedOrder {
    StorageTier* tier;
    PageNo first_page;
    uint32_t entries_per_page;
    size_t num_pages;
    std::vector<ObjectId> fences;  // lead key of each page's first entry
  };
  struct IndexPage;

  /// Pins index page `page` of the spilled ordering.
  IndexPage PinPage(size_t page) const;
  /// Entry `i` of the spilled ordering, pinning its page.
  RowId PagedOrderAt(size_t i) const;
  /// [lower, upper) of entries whose key starts with `prefix` (in memory).
  std::pair<size_t, size_t> PrefixRange(TupleView prefix) const;
  /// LookupPrefix on the spilled ordering.
  std::span<const RowId> PagedLookupPrefix(TupleView prefix,
                                           std::vector<RowId>* scratch) const;

  const Table& table_;
  std::vector<int> key_columns_;
  MappedVector<RowId> order_;  // row ids sorted by key columns
  size_t num_entries_ = 0;
  bool lead_runs_in_row_order_ = false;
  std::unique_ptr<PagedOrder> paged_;

  // Compares row `row` against `prefix` on key columns [from, prefix.size()).
  int ComparePrefix(RowId row, TupleView prefix, size_t from = 0) const;
};

}  // namespace xk::storage

#endif  // XK_STORAGE_INDEX_H_
