#include "storage/page_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace xk::storage {

namespace {

Status WriteFull(int fd, const void* buf, size_t n, off_t offset) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, offset);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("pwrite failed: %s", std::strerror(errno)));
    }
    p += w;
    n -= static_cast<size_t>(w);
    offset += w;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PageStore>> PageStore::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("cannot create page store %s: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  return std::unique_ptr<PageStore>(
      new PageStore(path, fd, /*num_pages=*/0, /*writable=*/true));
}

Result<std::unique_ptr<PageStore>> PageStore::OpenReadOnly(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(StrFormat("cannot open page store %s: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal(StrFormat("fstat %s failed", path.c_str()));
  }
  if (st.st_size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::Corruption(
        StrFormat("page store %s is %lld bytes, not a page multiple — "
                  "truncated tail",
                  path.c_str(), static_cast<long long>(st.st_size)));
  }
  return std::unique_ptr<PageStore>(
      new PageStore(path, fd, static_cast<size_t>(st.st_size) / kPageSize,
                    /*writable=*/false));
}

PageStore::~PageStore() {
  if (fd_ >= 0) ::close(fd_);
}

Result<PageNo> PageStore::AppendPage(PageType type, const void* payload,
                                     size_t len) {
  const std::string_view view(static_cast<const char*>(payload), len);
  return AppendPages(type, std::span<const std::string_view>(&view, 1));
}

Result<PageNo> PageStore::AppendPages(
    PageType type, std::span<const std::string_view> payloads) {
  if (!writable_) return Status::Aborted("page store is read-only");
  for (std::string_view payload : payloads) {
    if (payload.size() > kPagePayload) {
      return Status::InvalidArgument(StrFormat(
          "page payload %zu exceeds %zu", payload.size(), kPagePayload));
    }
  }
  std::lock_guard<std::mutex> lock(append_mu_);
  const PageNo first = static_cast<PageNo>(num_pages_.load());
  std::vector<char> images;
  for (size_t done = 0; done < payloads.size();) {
    const size_t n = std::min(kAppendBatchPages, payloads.size() - done);
    images.assign(n * kPageSize, 0);
    for (size_t i = 0; i < n; ++i) {
      const std::string_view payload = payloads[done + i];
      char* image = images.data() + i * kPageSize;
      PageHeader h;
      h.magic = kPageMagic;
      h.page_no = first + static_cast<PageNo>(done + i);
      h.type = static_cast<uint16_t>(type);
      h.reserved = 0;
      h.payload_len = static_cast<uint32_t>(payload.size());
      h.checksum = ComputePageChecksum(h, payload.data());
      std::memcpy(image, &h, sizeof(h));
      if (!payload.empty()) {
        std::memcpy(image + sizeof(h), payload.data(), payload.size());
      }
    }
    XK_RETURN_NOT_OK(WriteFull(fd_, images.data(), images.size(),
                               static_cast<off_t>(first + done) *
                                   static_cast<off_t>(kPageSize)));
    done += n;
    // Publish only after the pages are in the file, so a concurrent reader
    // can never see a page number it cannot read back.
    num_pages_.store(first + done, std::memory_order_release);
  }
  return first;
}

Result<PageNo> PageStore::AppendBytes(PageType type, std::string_view bytes) {
  std::vector<std::string_view> pages;
  for (size_t pos = 0; pos < bytes.size(); pos += kPagePayload) {
    pages.push_back(bytes.substr(pos, kPagePayload));
  }
  return AppendPages(type, pages);
}

Status PageStore::ReadPage(PageNo page_no, void* buf) const {
  if (page_no >= num_pages()) {
    return Status::OutOfRange(
        StrFormat("page %u past end (%zu pages)", page_no, num_pages()));
  }
  char* out = static_cast<char*>(buf);
  size_t n = kPageSize;
  off_t offset = static_cast<off_t>(page_no) * static_cast<off_t>(kPageSize);
  while (n > 0) {
    const ssize_t r = ::pread(fd_, out, n, offset);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(
          StrFormat("pread failed: %s", std::strerror(errno)));
    }
    if (r == 0) {
      return Status::Corruption(
          StrFormat("page %u truncated: short read", page_no));
    }
    out += r;
    n -= static_cast<size_t>(r);
    offset += r;
  }
  PageHeader h;
  std::memcpy(&h, buf, sizeof(h));
  if (h.magic != kPageMagic) {
    return Status::Corruption(StrFormat("page %u: bad magic", page_no));
  }
  if (h.page_no != page_no) {
    return Status::Corruption(
        StrFormat("page %u: header names page %u", page_no, h.page_no));
  }
  if (h.payload_len > kPagePayload) {
    return Status::Corruption(
        StrFormat("page %u: payload length %u out of range", page_no,
                  h.payload_len));
  }
  const uint64_t want =
      ComputePageChecksum(h, static_cast<const char*>(buf) + sizeof(h));
  if (want != h.checksum) {
    return Status::Corruption(StrFormat("page %u: checksum mismatch", page_no));
  }
  return Status::OK();
}

Status PageStore::VerifyAllPages() const {
  alignas(8) char buf[kPageSize];
  for (size_t p = 0; p < num_pages(); ++p) {
    XK_RETURN_NOT_OK(ReadPage(static_cast<PageNo>(p), buf));
  }
  return Status::OK();
}

}  // namespace xk::storage
