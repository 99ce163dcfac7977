// Copyright (c) the XKeyword authors.
//
// Append-only page file under the disk-resident storage tier. Writers append
// whole pages (or byte segments chunked into consecutive pages) during load /
// AddDecomposition; every page is immutable once appended, so concurrent
// query-time reads need no coordination with later appends. Reads verify the
// page header (magic, page number, payload length, checksum) on every fetch,
// rejecting torn or truncated pages and wrong-offset reads.

#ifndef XK_STORAGE_PAGE_STORE_H_
#define XK_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace xk::storage {

/// Page number within one store file.
using PageNo = uint32_t;

/// Pages AppendPages writes per system call (256 KiB).
inline constexpr size_t kAppendBatchPages = 32;

class PageStore {
 public:
  /// Creates (truncating) the store file at `path` for writing and reading.
  static Result<std::unique_ptr<PageStore>> Create(const std::string& path);

  /// Opens an existing store file read-only (corruption checks / tools).
  static Result<std::unique_ptr<PageStore>> OpenReadOnly(
      const std::string& path);

  ~PageStore();
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Appends one page with the given payload (<= kPagePayload bytes).
  Result<PageNo> AppendPage(PageType type, const void* payload, size_t len);

  /// Appends one page per payload (each <= kPagePayload bytes), in order,
  /// writing up to kAppendBatchPages pages per system call. Returns the
  /// first page's number (the next page number when `payloads` is empty).
  Result<PageNo> AppendPages(PageType type,
                             std::span<const std::string_view> payloads);

  /// Appends `bytes` chunked into consecutive pages (every page payload-full
  /// except possibly the last). Returns the first page; byte `i` of the
  /// segment lives on page `first + i / kPagePayload` at payload offset
  /// `i % kPagePayload`. An empty segment appends nothing.
  Result<PageNo> AppendBytes(PageType type, std::string_view bytes);

  /// Reads page `page_no` into `buf` (kPageSize bytes) and verifies its
  /// header. Corruption on checksum / header mismatch or short read.
  Status ReadPage(PageNo page_no, void* buf) const;

  /// Verifies every page in the file; first corruption wins.
  Status VerifyAllPages() const;

  size_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  size_t file_bytes() const { return num_pages() * kPageSize; }
  const std::string& path() const { return path_; }

 private:
  PageStore(std::string path, int fd, size_t num_pages, bool writable)
      : path_(std::move(path)),
        fd_(fd),
        writable_(writable),
        num_pages_(num_pages) {}

  std::string path_;
  int fd_;
  bool writable_;
  std::mutex append_mu_;
  std::atomic<size_t> num_pages_;
};

}  // namespace xk::storage

#endif  // XK_STORAGE_PAGE_STORE_H_
