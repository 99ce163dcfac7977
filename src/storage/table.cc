#include "storage/table.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"
#include "storage/storage_tier.h"

namespace xk::storage {

Table::Table(std::string name, std::vector<std::string> column_names)
    : name_(std::move(name)),
      column_names_(std::move(column_names)),
      arity_(static_cast<int>(column_names_.size())) {
  XK_CHECK_GT(arity_, 0);
  distinct_cache_.resize(static_cast<size_t>(arity_));
}

Result<int> Table::ColumnIndex(const std::string& name) const {
  for (int i = 0; i < arity_; ++i) {
    if (column_names_[static_cast<size_t>(i)] == name) return i;
  }
  return Status::NotFound(
      StrFormat("table %s has no column %s", name_.c_str(), name.c_str()));
}

Status Table::Append(TupleView row) {
  if (frozen_) {
    return Status::Aborted(StrFormat("table %s is frozen", name_.c_str()));
  }
  if (static_cast<int>(row.size()) != arity_) {
    return Status::InvalidArgument(
        StrFormat("table %s arity %d, got row of %zu", name_.c_str(), arity_,
                  row.size()));
  }
  rows_.insert(rows_.end(), row.begin(), row.end());
  ++num_rows_;
  return Status::OK();
}

Status Table::Cluster(std::vector<int> key_columns) {
  if (!hash_indexes_.empty() || !composite_indexes_.empty()) {
    return Status::Aborted("cluster before building secondary indexes");
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("empty clustering key");
  }
  for (int c : key_columns) {
    if (c < 0 || c >= arity_) {
      return Status::OutOfRange(StrFormat("clustering column %d out of range", c));
    }
  }
  // Stable sort of row ids by key, then rewrite the flat storage in order.
  MappedVector<RowId> order(num_rows_);
  std::iota(order.begin(), order.end(), RowId{0});
  StableRadixSortRows(*this, key_columns, order);
  MappedVector<ObjectId> sorted;
  sorted.reserve(rows_.size());
  for (RowId r : order) {
    TupleView row = Row(r);
    sorted.insert(sorted.end(), row.begin(), row.end());
  }
  rows_ = std::move(sorted);
  clustering_ = std::move(key_columns);
  return Status::OK();
}

std::pair<RowId, RowId> Table::ClusteredRange(TupleView prefix) const {
  XK_CHECK(clustering_.has_value());
  XK_CHECK_LE(prefix.size(), clustering_->size());
  if (paged_ != nullptr) return PagedClusteredRange(prefix);
  const std::vector<int>& key = *clustering_;
  // Binary search over row positions (rows are physically sorted).
  auto cmp_lower = [&](RowId r) {  // true if Row(r) < prefix
    for (size_t i = 0; i < prefix.size(); ++i) {
      ObjectId v = At(r, key[i]);
      if (v != prefix[i]) return v < prefix[i];
    }
    return false;
  };
  auto cmp_upper = [&](RowId r) {  // true if Row(r) <= prefix
    for (size_t i = 0; i < prefix.size(); ++i) {
      ObjectId v = At(r, key[i]);
      if (v != prefix[i]) return v < prefix[i];
    }
    return true;
  };
  RowId lo = 0;
  RowId hi = static_cast<RowId>(num_rows_);
  while (lo < hi) {
    RowId mid = lo + (hi - lo) / 2;
    if (cmp_lower(mid)) lo = mid + 1; else hi = mid;
  }
  RowId begin = lo;
  hi = static_cast<RowId>(num_rows_);
  while (lo < hi) {
    RowId mid = lo + (hi - lo) / 2;
    if (cmp_upper(mid)) lo = mid + 1; else hi = mid;
  }
  return {begin, lo};
}

Status Table::BuildHashIndex(int column) {
  if (column < 0 || column >= arity_) {
    return Status::OutOfRange(StrFormat("index column %d out of range", column));
  }
  if (GetHashIndex(column) != nullptr) return Status::OK();
  hash_indexes_.push_back(std::make_unique<HashIndex>(*this, column));
  return Status::OK();
}

Status Table::BuildCompositeIndex(std::vector<int> key_columns) {
  if (key_columns.empty()) return Status::InvalidArgument("empty composite key");
  for (int c : key_columns) {
    if (c < 0 || c >= arity_) {
      return Status::OutOfRange(StrFormat("index column %d out of range", c));
    }
  }
  for (const auto& idx : composite_indexes_) {
    if (idx->key_columns() == key_columns) return Status::OK();
  }
  composite_indexes_.push_back(std::make_unique<CompositeIndex>(*this, key_columns));
  return Status::OK();
}

const HashIndex* Table::GetHashIndex(int column) const {
  for (const auto& idx : hash_indexes_) {
    if (idx->column() == column) return idx.get();
  }
  return nullptr;
}

const CompositeIndex* Table::GetCompositeIndex(const std::vector<int>& columns) const {
  for (const auto& idx : composite_indexes_) {
    if (idx->key_columns().size() >= columns.size() &&
        std::equal(columns.begin(), columns.end(), idx->key_columns().begin())) {
      return idx.get();
    }
  }
  return nullptr;
}

size_t Table::MemoryBytes() const {
  size_t bytes = rows_.capacity() * sizeof(ObjectId);
  if (paged_ != nullptr) bytes += paged_->fences.capacity() * sizeof(ObjectId);
  for (const auto& idx : hash_indexes_) bytes += idx->MemoryBytes();
  for (const auto& idx : composite_indexes_) bytes += idx->MemoryBytes();
  return bytes;
}

// --- Disk backend --------------------------------------------------------

uint32_t Table::RowsPerPage() const {
  return static_cast<uint32_t>(kPagePayload /
                               (static_cast<size_t>(arity_) * sizeof(ObjectId)));
}

Status Table::SpillToDisk(StorageTier* tier) {
  if (paged_ != nullptr) return Status::OK();
  if (!frozen_) {
    return Status::Aborted(
        StrFormat("table %s: freeze before spilling to disk", name_.c_str()));
  }
  const uint32_t rpp = RowsPerPage();
  XK_CHECK_GT(rpp, 0u);
  auto paged = std::make_unique<PagedRows>();
  paged->tier = tier;
  paged->rows_per_page = rpp;
  paged->num_pages = (num_rows_ + rpp - 1) / rpp;
  if (clustering_.has_value()) {
    paged->fences.reserve(paged->num_pages * clustering_->size());
  }
  std::vector<std::string_view> pages;
  pages.reserve(paged->num_pages);
  for (size_t start = 0; start < num_rows_; start += rpp) {
    const size_t n = std::min<size_t>(rpp, num_rows_ - start);
    if (clustering_.has_value()) {
      for (int c : *clustering_) paged->fences.push_back(At(static_cast<RowId>(start), c));
    }
    pages.emplace_back(reinterpret_cast<const char*>(rows_.data() + start * arity_),
                       n * static_cast<size_t>(arity_) * sizeof(ObjectId));
  }
  // Pages of one table are consecutive, for page-of-row arithmetic.
  XK_ASSIGN_OR_RETURN(paged->first_page,
                      tier->store()->AppendPages(PageType::kTableRows, pages));
  for (const auto& idx : composite_indexes_) {
    XK_RETURN_NOT_OK(idx->SpillToDisk(tier));
  }
  paged_ = std::move(paged);
  MappedVector<ObjectId>().swap(rows_);
  return Status::OK();
}

size_t Table::DiskBytes() const {
  size_t bytes = paged_ != nullptr ? paged_->num_pages * kPageSize : 0;
  for (const auto& idx : composite_indexes_) bytes += idx->DiskBytes();
  return bytes;
}

std::pair<RowId, RowId> Table::PagedClusteredRange(TupleView prefix) const {
  const size_t k = prefix.size();
  if (k == 0) return {0, static_cast<RowId>(num_rows_)};
  const std::vector<int>& key = *clustering_;
  const size_t stride = key.size();
  // Sign of (the first k clustering-key values at `key_at`) - prefix.
  auto compare = [&](auto key_at) {
    for (size_t i = 0; i < k; ++i) {
      const ObjectId v = key_at(i);
      if (v != prefix[i]) return v < prefix[i] ? -1 : 1;
    }
    return 0;
  };
  // Fences hold each page's first key, in key order: the range starts on
  // the last page whose first key is below the prefix (or at the start of
  // the next) and ends on the last page whose first key is at most it.
  const ObjectId* fences = paged_->fences.data();
  auto pages_where = [&](auto pred) {
    size_t lo = 0, hi = paged_->num_pages;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const ObjectId* fence = fences + mid * stride;
      if (pred(compare([&](size_t i) { return fence[i]; }))) lo = mid + 1; else hi = mid;
    }
    return lo;
  };
  const size_t below = pages_where([](int c) { return c < 0; });
  const size_t at_most = pages_where([](int c) { return c <= 0; });
  // First row of page `page` whose key prefix fails `pred`; consecutive
  // calls on one page share its pin.
  PageHandle pin;
  const ObjectId* base = nullptr;
  RowId page_begin = 0, page_end = 0;
  auto bound_in_page = [&](size_t page, auto pred) {
    const auto first_row = static_cast<RowId>(page * paged_->rows_per_page);
    if (!pin.valid() || first_row != page_begin) {
      pin = PinRun(first_row, &base, &page_begin, &page_end);
    }
    RowId lo = page_begin, hi = page_end;
    while (lo < hi) {
      const RowId mid = lo + (hi - lo) / 2;
      const ObjectId* row = base + static_cast<size_t>(mid - page_begin) * arity_;
      if (pred(compare([&](size_t i) { return row[key[i]]; }))) lo = mid + 1; else hi = mid;
    }
    return lo;
  };
  if (at_most == 0) return {0, 0};  // the prefix is below every key
  const RowId end = bound_in_page(at_most - 1, [](int c) { return c <= 0; });
  const RowId begin =
      below == 0 ? 0 : bound_in_page(below - 1, [](int c) { return c < 0; });
  return {begin, end};
}

PageHandle Table::PinRun(RowId r, const ObjectId** base, RowId* begin,
                         RowId* end) const {
  XK_CHECK(paged_ != nullptr);
  XK_CHECK_LT(static_cast<size_t>(r), num_rows_);
  const uint32_t rpp = paged_->rows_per_page;
  const size_t page_index = r / rpp;
  PageHandle h = paged_->tier->pool()->Pin(
      paged_->first_page + static_cast<PageNo>(page_index));
  *base = reinterpret_cast<const ObjectId*>(h.payload());
  *begin = static_cast<RowId>(page_index * rpp);
  *end = static_cast<RowId>(
      std::min<size_t>(num_rows_, (page_index + 1) * rpp));
  return h;
}

ObjectId Table::PagedAt(RowId r, int col) const {
  const ObjectId* base;
  RowId begin, end;
  PageHandle h = PinRun(r, &base, &begin, &end);
  return base[static_cast<size_t>(r - begin) * arity_ +
              static_cast<size_t>(col)];
}

void Table::PagedRowInto(RowId r, Tuple* scratch) const {
  const ObjectId* base;
  RowId begin, end;
  PageHandle h = PinRun(r, &base, &begin, &end);
  const ObjectId* row = base + static_cast<size_t>(r - begin) * arity_;
  scratch->assign(row, row + arity_);
}

TableReadCursor::TableReadCursor(const Table& table)
    : table_(table), arity_(static_cast<size_t>(table.arity())) {
  if (!table_.IsPaged()) {
    base_ = table_.rows_.data();
    begin_ = 0;
    end_ = static_cast<RowId>(table_.NumRows());
  }
}

ObjectId TableReadCursor::Refill(RowId r, int col) {
  pin_ = table_.PinRun(r, &base_, &begin_, &end_);
  return base_[static_cast<size_t>(r - begin_) * arity_ +
               static_cast<size_t>(col)];
}

size_t Table::DistinctCount(int column) const {
  XK_CHECK(column >= 0 && column < arity_);
  if (frozen_) {
    std::lock_guard<std::mutex> lock(distinct_mu_);
    const auto& slot = distinct_cache_[static_cast<size_t>(column)];
    if (slot.has_value()) return *slot;
  }
  std::unordered_set<ObjectId> seen;
  TableReadCursor cursor(*this);  // one pin per page on a paged table
  for (size_t r = 0; r < num_rows_; ++r) {
    seen.insert(cursor.At(static_cast<RowId>(r), column));
  }
  const size_t count = seen.size();
  if (frozen_) {
    std::lock_guard<std::mutex> lock(distinct_mu_);
    distinct_cache_[static_cast<size_t>(column)] = count;
  }
  return count;
}

}  // namespace xk::storage
