// Copyright (c) the XKeyword authors.
//
// The disk-resident storage tier behind the catalog (ROADMAP item 2): one
// append-only page file plus the pinning buffer pool that serves reads from
// it. Load builds every substrate in RAM exactly as before, then spills it —
// heap/index-organized table rows, composite-index orderings, compressed
// posting lists and BLOBs — into typed pages; query-time reads pin pages on
// demand. The in-memory backend stays the default; backend selection is a
// load-time knob (StorageOptions), overridable per process with
// XK_STORAGE_BACKEND=disk / XK_BUFFER_POOL_BYTES=<n> so the ctest
// *_disk_backend reruns cover both arms the way *_scalar_kernels covers both
// SIMD arms.

#ifndef XK_STORAGE_STORAGE_TIER_H_
#define XK_STORAGE_STORAGE_TIER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace xk::storage {

enum class StorageBackend {
  kMemory,  // every substrate RAM-resident (default)
  kDisk,    // rows / orderings / postings / BLOBs on pages behind the pool
};

/// Load-time knobs of the storage tier.
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMemory;
  /// Buffer-pool byte budget (disk backend). Rounded down to whole frames;
  /// at least one frame.
  size_t buffer_pool_bytes = size_t{64} << 20;
  /// Directory for the page file; empty = a fresh private temp directory
  /// that the tier removes on destruction.
  std::string data_dir;

  /// Applies the XK_STORAGE_BACKEND / XK_BUFFER_POOL_BYTES environment
  /// overrides on top of the programmatic values and returns the result.
  StorageOptions WithEnvOverrides() const;
};

/// Owns the page file and the pool. One tier serves every substrate of one
/// loaded database, so a single byte budget governs the whole process's
/// resident page memory.
class StorageTier {
 public:
  /// Creates the page file under `options.data_dir` (or a private temp dir).
  static Result<std::unique_ptr<StorageTier>> Create(
      const StorageOptions& options);

  ~StorageTier();
  StorageTier(const StorageTier&) = delete;
  StorageTier& operator=(const StorageTier&) = delete;

  PageStore* store() { return store_.get(); }
  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }

  BufferPoolStats PoolStats() const { return pool_->Stats(); }
  size_t FileBytes() const { return store_->file_bytes(); }

  /// Reads `len` bytes starting `offset` bytes into the byte segment that
  /// begins at `first_page` (PageStore::AppendBytes layout), pinning each
  /// touched page through the pool.
  std::string ReadSegment(PageNo first_page, uint64_t offset, size_t len);

 private:
  StorageTier(std::unique_ptr<PageStore> store, std::unique_ptr<BufferPool> pool,
              std::string owned_dir)
      : store_(std::move(store)),
        pool_(std::move(pool)),
        owned_dir_(std::move(owned_dir)) {}

  std::unique_ptr<PageStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::string owned_dir_;  // temp dir to remove on destruction; may be empty
};

}  // namespace xk::storage

#endif  // XK_STORAGE_STORAGE_TIER_H_
