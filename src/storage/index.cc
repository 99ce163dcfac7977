#include "storage/index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "storage/storage_tier.h"
#include "storage/table.h"

namespace xk::storage {

void StableRadixSortRows(const Table& table, std::span<const int> key_columns,
                         std::span<RowId> rows) {
  constexpr int kMaxDigitBits = 16;
  const size_t n = rows.size();
  if (n < 2) return;
  TableReadCursor cursor(table);
  MappedVector<RowId> scratch(n);
  MappedVector<uint16_t> digits(n);
  std::vector<uint32_t> counts;
  // Each pass scatters `from` into `to`; the two swap roles after it.
  RowId* from = rows.data();
  RowId* to = scratch.data();
  for (auto col = key_columns.rbegin(); col != key_columns.rend(); ++col) {
    const int c = *col;
    // One read for the column's range and whether it is already in order.
    ObjectId lo = cursor.At(from[0], c);
    ObjectId hi = lo;
    ObjectId prev = lo;
    bool in_order = true;
    for (size_t i = 1; i < n; ++i) {
      const ObjectId v = cursor.At(from[i], c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      in_order = in_order && prev <= v;
      prev = v;
    }
    if (in_order) continue;  // a stable pass would not move anything
    const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const int bits = std::bit_width(range);
    const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
    const int width = (bits + passes - 1) / passes;
    const uint64_t mask = (uint64_t{1} << width) - 1;
    for (int p = 0; p < passes; ++p) {
      const int shift = p * width;
      counts.assign(size_t{1} << width, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t offset = static_cast<uint64_t>(cursor.At(from[i], c)) -
                                static_cast<uint64_t>(lo);
        digits[i] = static_cast<uint16_t>((offset >> shift) & mask);
        ++counts[digits[i]];
      }
      uint32_t start = 0;
      for (uint32_t& count : counts) {
        const uint32_t here = count;
        count = start;
        start += here;
      }
      for (size_t i = 0; i < n; ++i) to[counts[digits[i]]++] = from[i];
      std::swap(from, to);
    }
  }
  if (from != rows.data()) std::copy(from, from + n, rows.data());
}

HashIndex::HashIndex(const Table& table, int column) : column_(column) {
  // Two-pass build: count rows per key first, then reserve every bucket
  // vector to its exact final size before filling — no reallocation churn
  // (and no over-allocation) while appending row ids.
  std::unordered_map<ObjectId, RowId> counts;
  counts.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    ++counts[table.At(static_cast<RowId>(r), column)];
  }
  buckets_.reserve(counts.size());
  for (const auto& [key, n] : counts) {
    buckets_[key].reserve(n);
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    buckets_[table.At(static_cast<RowId>(r), column)].push_back(static_cast<RowId>(r));
  }
}

std::span<const RowId> HashIndex::Lookup(ObjectId key) const {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return {};
  return std::span<const RowId>(it->second);
}

size_t HashIndex::MemoryBytes() const {
  // unordered_map heap usage, not just payload: the bucket-pointer array
  // plus one chained node per entry (key + vector header + hash cache +
  // next pointer in the libstdc++/libc++ layouts), plus each bucket
  // vector's own allocation. The old payload-only count undercounted the
  // map by roughly 2x, skewing the space ablation against the compressed
  // on-disk representation.
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);  // next ptr + hash
  size_t bytes = buckets_.bucket_count() * sizeof(void*);
  bytes += buckets_.size() *
           (sizeof(ObjectId) + sizeof(std::vector<RowId>) + kNodeOverhead);
  for (const auto& [key, rows] : buckets_) {
    (void)key;
    bytes += rows.capacity() * sizeof(RowId);
  }
  return bytes;
}

namespace {

/// SplitMix64 over one id (the golden-ratio increment, then the finalizer):
/// a cheap, well-distributed 64-bit mix, the filter's first hash.
uint64_t BloomMix(ObjectId key) {
  uint64_t h = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys, double bits_per_key) {
  XK_CHECK_GT(bits_per_key, 0.0);
  size_t want_bits =
      static_cast<size_t>(static_cast<double>(std::max<size_t>(expected_keys, 1)) *
                          bits_per_key);
  size_t bits = 64;
  while (bits < want_bits) bits <<= 1;
  words_.assign(bits / 64, 0);
  bit_mask_ = bits - 1;
  // Optimal k = ln 2 * bits/key; clamp to a practical range.
  num_hashes_ = std::clamp(static_cast<int>(bits_per_key * 0.69), 1, 8);
}

void BloomFilter::Add(ObjectId key) {
  uint64_t h1 = BloomMix(key);
  uint64_t h2 = (h1 >> 17) | (h1 << 47);  // independent-enough second hash
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) & bit_mask_;
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  ++num_keys_added_;
}

bool BloomFilter::MayContain(ObjectId key) const {
  uint64_t h1 = BloomMix(key);
  uint64_t h2 = (h1 >> 17) | (h1 << 47);
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) & bit_mask_;
    if ((words_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
  }
  return true;
}

CompositeIndex::CompositeIndex(const Table& table, std::vector<int> key_columns)
    : table_(table), key_columns_(std::move(key_columns)) {
  XK_CHECK(!key_columns_.empty());
  // Rows are sorted on the clustering key, so one lead value's rows ascend
  // in row order on the rest of that key; when the rest of this key is a
  // prefix of it, the lead runs of the full-key order are in row order.
  if (table.IsClustered()) {
    std::vector<int> rest;
    for (int c : table.clustering_key()) {
      if (c != key_columns_[0]) rest.push_back(c);
    }
    lead_runs_in_row_order_ =
        key_columns_.size() - 1 <= rest.size() &&
        std::equal(key_columns_.begin() + 1, key_columns_.end(), rest.begin());
  }
  order_.resize(table.NumRows());
  num_entries_ = order_.size();
  std::iota(order_.begin(), order_.end(), RowId{0});
  // With lead runs in row order, a stable sort on the lead alone already
  // yields the full-key order.
  const size_t sort_columns = lead_runs_in_row_order_ ? 1 : key_columns_.size();
  StableRadixSortRows(table, std::span<const int>(key_columns_.data(), sort_columns),
                      order_);
}

int CompositeIndex::ComparePrefix(RowId row, TupleView prefix,
                                  size_t from) const {
  for (size_t i = from; i < prefix.size(); ++i) {
    ObjectId v = table_.At(row, key_columns_[i]);
    if (v < prefix[i]) return -1;
    if (v > prefix[i]) return 1;
  }
  return 0;
}

std::pair<size_t, size_t> CompositeIndex::PrefixRange(TupleView prefix) const {
  XK_CHECK_LE(prefix.size(), key_columns_.size());
  // partition_point over entry positions; every probe compares its row's key
  // prefix.
  size_t lo = 0, hi = num_entries_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ComparePrefix(order_[mid], prefix) < 0) lo = mid + 1; else hi = mid;
  }
  const size_t lower = lo;
  hi = num_entries_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ComparePrefix(order_[mid], prefix) == 0) lo = mid + 1; else hi = mid;
  }
  return {lower, lo};
}

std::span<const RowId> CompositeIndex::LookupPrefix(TupleView prefix) const {
  XK_CHECK(paged_ == nullptr);
  auto [lower, upper] = PrefixRange(prefix);
  return std::span<const RowId>(order_.data() + lower, upper - lower);
}

std::span<const RowId> CompositeIndex::LookupPrefix(
    TupleView prefix, std::vector<RowId>* scratch) const {
  if (paged_ != nullptr) return PagedLookupPrefix(prefix, scratch);
  auto [lower, upper] = PrefixRange(prefix);
  return std::span<const RowId>(order_.data() + lower, upper - lower);
}

// --- Spilled ordering ----------------------------------------------------

/// One pinned index page: entries [begin, begin + size) of the ordering,
/// their lead keys and their row ids.
struct CompositeIndex::IndexPage {
  PageHandle pin;
  size_t begin = 0;
  size_t size = 0;
  const ObjectId* keys = nullptr;
  const RowId* rows = nullptr;
};

CompositeIndex::IndexPage CompositeIndex::PinPage(size_t page) const {
  IndexPage p;
  p.pin = paged_->tier->pool()->Pin(paged_->first_page +
                                    static_cast<PageNo>(page));
  p.begin = page * paged_->entries_per_page;
  p.size = std::min<size_t>(paged_->entries_per_page, num_entries_ - p.begin);
  p.keys = reinterpret_cast<const ObjectId*>(p.pin.payload());
  p.rows = reinterpret_cast<const RowId*>(p.keys + p.size);
  return p;
}

RowId CompositeIndex::PagedOrderAt(size_t i) const {
  const IndexPage p = PinPage(i / paged_->entries_per_page);
  return p.rows[i - p.begin];
}

std::span<const RowId> CompositeIndex::PagedLookupPrefix(
    TupleView prefix, std::vector<RowId>* scratch) const {
  XK_CHECK_LE(prefix.size(), key_columns_.size());
  scratch->clear();
  size_t lower = 0, upper = num_entries_;
  // The pages the lead run's bounds were found on, kept pinned for the copy.
  IndexPage first, last;
  if (!prefix.empty()) {
    // Fences are the lead keys of the pages' first entries, in key order:
    // the run starts on the last page whose first key is below `v` (or at
    // the start of the next) and ends on the last page whose first key is
    // at most `v`.
    const ObjectId v = prefix[0];
    const std::vector<ObjectId>& fences = paged_->fences;
    const size_t below = static_cast<size_t>(
        std::lower_bound(fences.begin(), fences.end(), v) - fences.begin());
    const size_t at_most = static_cast<size_t>(
        std::upper_bound(fences.begin(), fences.end(), v) - fences.begin());
    if (at_most == 0) return {};  // `v` is below every key
    last = PinPage(at_most - 1);
    upper = last.begin + static_cast<size_t>(
        std::upper_bound(last.keys, last.keys + last.size, v) - last.keys);
    if (below > 0) {
      const IndexPage* page = &last;
      if (below != at_most) {
        first = PinPage(below - 1);
        page = &first;
      }
      lower = page->begin + static_cast<size_t>(
          std::lower_bound(page->keys, page->keys + page->size, v) - page->keys);
      // A run starting on the next page needs this one no longer.
      if (lower == first.begin + first.size) first.pin.Release();
    }
    if (prefix.size() > 1) {
      // The rest of the key lives in the table: narrow the lead run by
      // reading the rows of its probed entries.
      first.pin.Release();
      last.pin.Release();
      size_t lo = lower, hi = upper;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (ComparePrefix(PagedOrderAt(mid), prefix, 1) < 0) lo = mid + 1; else hi = mid;
      }
      lower = lo;
      hi = upper;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (ComparePrefix(PagedOrderAt(mid), prefix, 1) == 0) lo = mid + 1; else hi = mid;
      }
      upper = lo;
    }
  }
  scratch->reserve(upper - lower);
  // Copy page-run-at-a-time: one pin per touched page, none for the pages
  // still pinned from the search.
  size_t i = lower;
  while (i < upper) {
    const size_t page_begin = i - i % paged_->entries_per_page;
    IndexPage pinned;
    const IndexPage* page;
    if (last.pin.valid() && last.begin == page_begin) {
      page = &last;
    } else if (first.pin.valid() && first.begin == page_begin) {
      page = &first;
    } else {
      pinned = PinPage(page_begin / paged_->entries_per_page);
      page = &pinned;
    }
    const size_t run_end = std::min(upper, page->begin + page->size);
    scratch->insert(scratch->end(), page->rows + (i - page->begin),
                    page->rows + (run_end - page->begin));
    i = run_end;
    if (page == &first) first.pin.Release();  // the run goes on past it
  }
  return std::span<const RowId>(*scratch);
}

Status CompositeIndex::SpillToDisk(StorageTier* tier) {
  if (paged_ != nullptr) return Status::OK();
  const uint32_t epp =
      static_cast<uint32_t>(kPagePayload / (sizeof(ObjectId) + sizeof(RowId)));
  auto paged = std::make_unique<PagedOrder>();
  paged->tier = tier;
  paged->entries_per_page = epp;
  paged->num_pages = (num_entries_ + epp - 1) / epp;
  paged->first_page = static_cast<PageNo>(tier->store()->num_pages());
  paged->fences.reserve(paged->num_pages);
  // Page images are staged a write batch at a time; the batches of one
  // index land on consecutive pages because spills are serialized at load.
  constexpr size_t kEntryBytes = sizeof(ObjectId) + sizeof(RowId);
  std::vector<uint8_t> staging(kAppendBatchPages * kPagePayload);
  std::vector<std::string_view> pages;
  for (size_t start = 0; start < num_entries_;) {
    pages.clear();
    for (; start < num_entries_ && pages.size() < kAppendBatchPages; start += epp) {
      const size_t n = std::min<size_t>(epp, num_entries_ - start);
      uint8_t* image = staging.data() + pages.size() * kPagePayload;
      auto* keys = reinterpret_cast<ObjectId*>(image);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = table_.At(order_[start + i], key_columns_[0]);
      }
      std::memcpy(keys + n, order_.data() + start, n * sizeof(RowId));
      paged->fences.push_back(keys[0]);
      pages.emplace_back(reinterpret_cast<const char*>(image), n * kEntryBytes);
    }
    XK_ASSIGN_OR_RETURN(PageNo page,
                        tier->store()->AppendPages(PageType::kIndexOrder, pages));
    XK_CHECK_EQ(page, paged->first_page + paged->fences.size() - pages.size());
  }
  paged_ = std::move(paged);
  MappedVector<RowId>().swap(order_);
  return Status::OK();
}

size_t CompositeIndex::DiskBytes() const {
  return paged_ != nullptr ? paged_->num_pages * kPageSize : 0;
}

size_t CompositeIndex::MemoryBytes() const {
  // Ordering payload (or, once spilled, the page fences) plus the key-column
  // vector — self-contained heap use, so the ablation compares honestly
  // against DiskBytes() once spilled.
  const size_t fences =
      paged_ != nullptr ? paged_->fences.capacity() * sizeof(ObjectId) : 0;
  return order_.capacity() * sizeof(RowId) + fences +
         key_columns_.capacity() * sizeof(int);
}

}  // namespace xk::storage
