#include "storage/index.h"

#include <algorithm>

#include "common/logging.h"
#include "storage/storage_tier.h"
#include "storage/table.h"

namespace xk::storage {

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
  order_.resize(table.NumRows());
  num_entries_ = order_.size();
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = static_cast<RowId>(i);
  std::stable_sort(order_.begin(), order_.end(), [&](RowId a, RowId b) {
    for (int c : key_columns_) {
      ObjectId va = table_.At(a, c);
      ObjectId vb = table_.At(b, c);
      if (va != vb) return va < vb;
    }
    return false;
  });
  // Rows are sorted on the clustering key, and the sort above is stable (ties
  // keep row order), so one lead value's entries ascend in row order when the
  // rest of the key is a prefix of the clustering key without the lead.
  if (table.IsClustered()) {
    std::vector<int> rest;
    for (int c : table.clustering_key()) {
      if (c != key_columns_[0]) rest.push_back(c);
    }
    lead_runs_in_row_order_ =
        key_columns_.size() - 1 <= rest.size() &&
        std::equal(key_columns_.begin() + 1, key_columns_.end(), rest.begin());
  }
}

int CompositeIndex::ComparePrefix(RowId row, TupleView prefix) const {
  for (size_t i = 0; i < prefix.size(); ++i) {
    ObjectId v = table_.At(row, key_columns_[i]);
    if (v < prefix[i]) return -1;
    if (v > prefix[i]) return 1;
  }
  return 0;
}

RowId CompositeIndex::OrderAt(size_t i) const {
  if (paged_ == nullptr) return order_[i];
  const size_t page_index = i / paged_->entries_per_page;
  PageHandle h = paged_->tier->pool()->Pin(
      paged_->first_page + static_cast<PageNo>(page_index));
  const RowId* entries = reinterpret_cast<const RowId*>(h.payload());
  return entries[i - page_index * paged_->entries_per_page];
}

std::pair<size_t, size_t> CompositeIndex::PrefixRange(TupleView prefix) const {
  XK_CHECK_LE(prefix.size(), key_columns_.size());
  // partition_point over entry positions; every probe reads the entry (one
  // page pin when spilled) and compares its row's key prefix.
  size_t lo = 0, hi = num_entries_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ComparePrefix(OrderAt(mid), prefix) < 0) lo = mid + 1; else hi = mid;
  }
  const size_t lower = lo;
  hi = num_entries_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ComparePrefix(OrderAt(mid), prefix) == 0) lo = mid + 1; else hi = mid;
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
  auto [lower, upper] = PrefixRange(prefix);
  if (paged_ == nullptr) {
    return std::span<const RowId>(order_.data() + lower, upper - lower);
  }
  scratch->clear();
  scratch->reserve(upper - lower);
  // Copy page-run-at-a-time: one pin per touched page, not per entry.
  size_t i = lower;
  while (i < upper) {
    const size_t page_index = i / paged_->entries_per_page;
    const size_t run_end =
        std::min(upper, (page_index + 1) * paged_->entries_per_page);
    PageHandle h = paged_->tier->pool()->Pin(
        paged_->first_page + static_cast<PageNo>(page_index));
    const RowId* entries = reinterpret_cast<const RowId*>(h.payload());
    const size_t base = page_index * paged_->entries_per_page;
    scratch->insert(scratch->end(), entries + (i - base),
                    entries + (run_end - base));
    i = run_end;
  }
  return std::span<const RowId>(*scratch);
}

Status CompositeIndex::SpillToDisk(StorageTier* tier) {
  if (paged_ != nullptr) return Status::OK();
  const uint32_t epp = static_cast<uint32_t>(kPagePayload / sizeof(RowId));
  auto paged = std::make_unique<PagedOrder>();
  paged->tier = tier;
  paged->entries_per_page = epp;
  paged->num_pages = (num_entries_ + epp - 1) / epp;
  paged->first_page = static_cast<PageNo>(tier->store()->num_pages());
  for (size_t start = 0; start < num_entries_; start += epp) {
    const size_t n = std::min<size_t>(epp, num_entries_ - start);
    XK_ASSIGN_OR_RETURN(PageNo page,
                        tier->store()->AppendPage(PageType::kIndexOrder,
                                                  order_.data() + start,
                                                  n * sizeof(RowId)));
    XK_CHECK_EQ(page, paged->first_page + start / epp);
  }
  paged_ = std::move(paged);
  std::vector<RowId>().swap(order_);
  return Status::OK();
}

size_t CompositeIndex::DiskBytes() const {
  return paged_ != nullptr ? paged_->num_pages * kPageSize : 0;
}

size_t CompositeIndex::MemoryBytes() const {
  // Ordering payload plus the key-column vector — self-contained heap use,
  // so the ablation compares honestly against DiskBytes() once spilled.
  return order_.capacity() * sizeof(RowId) +
         key_columns_.capacity() * sizeof(int);
}

}  // namespace xk::storage
