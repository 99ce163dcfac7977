#include "exec/access_path.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"

namespace xk::exec {

namespace {

// Stack buffer for index-key prefixes: probes run millions of times per
// query, so cursor setup must not allocate. Keys longer than this fall back
// to the allocating helpers (none of the paper's schemas come close).
constexpr size_t kMaxInlineKey = 8;

struct PrefixBuf {
  storage::ObjectId vals[kMaxInlineKey];
  size_t len = 0;
  storage::TupleView view() const { return {vals, len}; }
};

/// Longest bound prefix of `key`, mirroring KeyPrefixFromBindings (first
/// matching binding per key column, stop at the first unbound column) but
/// without materializing values. Returns the length.
size_t BoundPrefixLen(const std::vector<int>& key,
                      const std::vector<ColumnBinding>& bindings) {
  size_t len = 0;
  for (int key_col : key) {
    bool found = false;
    for (const ColumnBinding& b : bindings) {
      if (b.column == key_col) {
        found = true;
        break;
      }
    }
    if (!found) break;
    ++len;
  }
  return len;
}

/// Fills `out` with the bound prefix of `key` (same selection rule as
/// KeyPrefixFromBindings). Requires the prefix length to fit the buffer.
void FillPrefix(const std::vector<int>& key,
                const std::vector<ColumnBinding>& bindings, size_t len,
                PrefixBuf* out) {
  XK_CHECK_LE(len, kMaxInlineKey);
  out->len = len;
  for (size_t i = 0; i < len; ++i) {
    for (const ColumnBinding& b : bindings) {
      if (b.column == key[i]) {
        out->vals[i] = b.value;
        break;
      }
    }
  }
}

/// Where the runs of a keyword seek on one column come from; false/null
/// when the column supports no seek.
struct SeekSource {
  bool clustered = false;  // the column leads the clustering key
  const storage::CompositeIndex* composite = nullptr;

  bool ok() const { return clustered || composite != nullptr; }
};

/// The seek source for `column`: the clustering key, else a composite index
/// it leads whose runs are in row order (so the merge reproduces scan
/// order). Hash indexes are never used: only the MinNClustIndx baseline
/// builds them, and it keeps the scans the paper measured.
SeekSource SeekSourceFor(const storage::Table& table, int column) {
  SeekSource source;
  if (table.IsClustered() && table.clustering_key()[0] == column) {
    source.clustered = true;
    return source;
  }
  for (const auto& idx : table.composite_indexes()) {
    if (idx->key_columns()[0] == column && idx->lead_runs_in_row_order()) {
      source.composite = idx.get();
      return source;
    }
  }
  return source;
}

}  // namespace

PathChoice ChoosePath(const storage::Table& table,
                      const std::vector<ColumnBinding>& bindings,
                      const ExecOptions& opts) {
  PathChoice choice;
  if (!opts.use_indexes || bindings.empty()) return choice;
  if (table.IsClustered()) {
    const size_t len = BoundPrefixLen(table.clustering_key(), bindings);
    if (len > 0) {
      choice.kind = AccessPathKind::kClusteredRange;
      choice.prefix_len = len;
      return choice;
    }
  }
  // Longest-prefix composite index; the first index built wins ties (only a
  // strictly longer prefix replaces the best).
  for (const auto& idx : table.composite_indexes()) {
    const size_t len = BoundPrefixLen(idx->key_columns(), bindings);
    if (len > choice.prefix_len) {
      choice.composite = idx.get();
      choice.prefix_len = len;
    }
  }
  if (choice.composite != nullptr) {
    choice.kind = AccessPathKind::kCompositeIndex;
    return choice;
  }
  for (const ColumnBinding& b : bindings) {
    const storage::HashIndex* idx = table.GetHashIndex(b.column);
    if (idx != nullptr) {
      choice.kind = AccessPathKind::kHashIndex;
      choice.hash = idx;
      choice.hash_key = b.value;
      return choice;
    }
  }
  return choice;
}

bool BloomPruned(const std::vector<ColumnBinding>& bindings,
                 const std::vector<ColumnBloom>& prune_blooms, ProbeStats* stats) {
  for (const ColumnBloom& pb : prune_blooms) {
    for (const ColumnBinding& b : bindings) {
      if (b.column == pb.column && !pb.bloom->MayContain(b.value)) {
        if (stats != nullptr) ++stats->bloom_skips;
        return true;
      }
    }
  }
  return false;
}

bool RowPasses(const storage::Table& table, storage::RowId r,
               const std::vector<ColumnBinding>& bindings,
               const std::vector<ColumnInSet>& in_filters) {
  for (const ColumnBinding& b : bindings) {
    if (table.At(r, b.column) != b.value) return false;
  }
  for (const ColumnInSet& f : in_filters) {
    if (!f.set->contains(table.At(r, f.column))) return false;
  }
  return true;
}

// --- CandidateCursor -----------------------------------------------------

AccessPathKind CandidateCursor::Init(const PathChoice& choice,
                                     const storage::Table& table,
                                     const std::vector<ColumnBinding>& bindings,
                                     const std::vector<ColumnInSet>& in_filters,
                                     const ExecOptions& opts) {
  switch (choice.kind) {
    case AccessPathKind::kClusteredRange: {
      const std::vector<int>& key = table.clustering_key();
      if (choice.prefix_len <= kMaxInlineKey) {
        PrefixBuf prefix;
        FillPrefix(key, bindings, choice.prefix_len, &prefix);
        std::tie(next_, end_) = table.ClusteredRange(prefix.view());
      } else {
        std::vector<storage::ObjectId> prefix = KeyPrefixFromBindings(key, bindings);
        std::tie(next_, end_) = table.ClusteredRange(prefix);
      }
      remaining_ = end_ - next_;
      break;
    }
    case AccessPathKind::kCompositeIndex: {
      const std::vector<int>& key = choice.composite->key_columns();
      mode_ = Mode::kSpan;
      if (choice.prefix_len <= kMaxInlineKey) {
        PrefixBuf prefix;
        FillPrefix(key, bindings, choice.prefix_len, &prefix);
        span_ = choice.composite->LookupPrefix(prefix.view(), &owned_);
      } else {
        std::vector<storage::ObjectId> prefix = KeyPrefixFromBindings(key, bindings);
        span_ = choice.composite->LookupPrefix(prefix, &owned_);
      }
      remaining_ = span_.size();
      break;
    }
    case AccessPathKind::kHashIndex:
      mode_ = Mode::kSpan;
      span_ = choice.hash->Lookup(choice.hash_key);
      remaining_ = span_.size();
      break;
    case AccessPathKind::kFullScan:
    case AccessPathKind::kKeywordSeek:
      if (opts.use_indexes && TrySeek(table, in_filters)) {
        return AccessPathKind::kKeywordSeek;
      }
      end_ = static_cast<storage::RowId>(table.NumRows());
      remaining_ = end_;
      return AccessPathKind::kFullScan;
  }
  return choice.kind;
}

bool CandidateCursor::TrySeek(const storage::Table& table,
                              const std::vector<ColumnInSet>& in_filters) {
  // Paged tables keep the scan. A lookup pins only its own pages, but the
  // candidates of a composite run lie on scattered table pages, and a
  // measured seek on paged tables missed more pages than the scan it
  // replaced (EXPERIMENTS A15).
  if (table.IsPaged()) return false;
  const ColumnInSet* best = nullptr;
  SeekSource source;
  for (const ColumnInSet& f : in_filters) {
    if (best != nullptr && f.set->size() >= best->set->size()) continue;
    const SeekSource s = SeekSourceFor(table, f.column);
    if (!s.ok()) continue;
    best = &f;
    source = s;
  }
  if (best == nullptr) return false;
  const size_t lookup_cost = best->set->size() * kSeekLookupCost;
  if (lookup_cost >= table.NumRows()) return false;
  // The candidates may cost at most this before the scan wins; the lookups
  // stop as soon as the runs found so far exceed it.
  const size_t row_cost = source.clustered ? kSeekRangeRowCost : kSeekMergeRowCost;
  const size_t max_candidates = (table.NumRows() - lookup_cost) / row_cost;
  size_t total = 0;
  if (source.clustered) {
    for (storage::ObjectId v : *best->set) {
      const auto range = table.ClusteredRange(storage::TupleView(&v, 1));
      if (range.first == range.second) continue;
      total += range.second - range.first;
      if (total >= max_candidates) {
        ranges_.clear();
        return false;
      }
      ranges_.push_back(range);
    }
    // One value's rows are one contiguous range and distinct values' ranges
    // are disjoint, so the sorted ranges are the scan's row sequence.
    std::sort(ranges_.begin(), ranges_.end());
    remaining_ = total;
    seek_cost_ = lookup_cost + total * row_cost;
    return true;
  }
  for (storage::ObjectId v : *best->set) {
    const std::span<const storage::RowId> run =
        source.composite->LookupPrefix(storage::TupleView(&v, 1));
    if (run.empty()) continue;
    total += run.size();
    if (total >= max_candidates) {
      heap_.clear();
      return false;
    }
    heap_.push_back(run);
  }
  remaining_ = total;
  seek_cost_ = lookup_cost + total * row_cost;
  if (heap_.size() == 1) {
    mode_ = Mode::kSpan;
    span_ = heap_[0];
    heap_.clear();
    return true;
  }
  // Each run is ascending and distinct values' runs are disjoint, so merging
  // them lazily yields exactly the scan's row sequence.
  mode_ = Mode::kMerge;
  std::make_heap(heap_.begin(), heap_.end(),
                 [](std::span<const storage::RowId> a,
                    std::span<const storage::RowId> b) {
                   return a.front() > b.front();
                 });
  return true;
}

size_t CandidateCursor::Fill(storage::RowId* out, size_t cap) {
  size_t n = 0;
  switch (mode_) {
    case Mode::kRanges:
      while (n < cap) {
        if (next_ == end_) {
          if (range_pos_ == ranges_.size()) break;
          std::tie(next_, end_) = ranges_[range_pos_++];
        }
        const size_t k = std::min<size_t>(cap - n, end_ - next_);
        for (size_t i = 0; i < k; ++i) {
          out[n + i] = next_ + static_cast<storage::RowId>(i);
        }
        next_ += static_cast<storage::RowId>(k);
        n += k;
      }
      break;
    case Mode::kSpan:
      n = std::min(cap, span_.size());
      std::copy_n(span_.begin(), n, out);
      span_ = span_.subspan(n);
      break;
    case Mode::kMerge:
      n = FillMerge(out, cap);
      break;
  }
  remaining_ -= n;
  return n;
}

size_t CandidateCursor::FillMerge(storage::RowId* out, size_t cap) {
  size_t n = 0;
  while (n < cap && !heap_.empty()) {
    // The root run holds the smallest row; copy from it while it stays below
    // every other run's head (the smaller of the root's children).
    std::span<const storage::RowId>& top = heap_[0];
    storage::RowId bound = std::numeric_limits<storage::RowId>::max();
    if (heap_.size() > 1) bound = heap_[1].front();
    if (heap_.size() > 2) bound = std::min(bound, heap_[2].front());
    size_t k = 0;
    while (k < top.size() && n < cap && top[k] < bound) out[n++] = top[k++];
    top = top.subspan(k);
    if (top.empty()) {
      top = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) break;
    }
    SiftDown();
  }
  return n;
}

void CandidateCursor::SiftDown() {
  // Restores the min-heap order (on run heads) after the root changed.
  const size_t size = heap_.size();
  size_t i = 0;
  while (true) {
    const size_t left = 2 * i + 1;
    if (left >= size) return;
    size_t child = left;
    if (left + 1 < size && heap_[left + 1].front() < heap_[left].front()) {
      child = left + 1;
    }
    if (heap_[i].front() <= heap_[child].front()) return;
    std::swap(heap_[i], heap_[child]);
    i = child;
  }
}

}  // namespace xk::exec
