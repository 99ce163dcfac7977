// Disk-resident storage tier: page format and posting codec round-trips,
// torn/truncated-page rejection, buffer-pool pin/eviction invariants (plus a
// tsan-targeted concurrency hammer), spill round-trips for tables, composite
// orderings, BLOBs and the master index, and the memory-vs-disk differential
// matrix — the disk backend must return results BYTE-IDENTICAL to the
// in-memory default across modes x threads while the pool
// actually evicts (budget far below the page file).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/dblp_gen.h"
#include "decomp/decomposition.h"
#include "engine/topk_executor.h"
#include "engine/xkeyword.h"
#include "exec/operators.h"
#include "keyword/master_index.h"
#include "service/metrics.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "storage/storage_tier.h"
#include "storage/table.h"
#include "test_util.h"

namespace xk {
namespace {

using engine::QueryMode;
using engine::QueryOptions;
using engine::QueryRequest;
using engine::XKeyword;
using storage::BufferPool;
using storage::EncodedPosting;
using storage::kPagePayload;
using storage::kPageSize;
using storage::PageHandle;
using storage::PageNo;
using storage::PageStore;
using storage::PageType;
using storage::StorageBackend;
using storage::StorageOptions;
using storage::StorageTier;

// --- Posting codec -------------------------------------------------------

std::vector<EncodedPosting> RoundTrip(const std::vector<EncodedPosting>& in) {
  std::string bytes;
  storage::EncodePostings(in.data(), in.size(), &bytes);
  std::vector<EncodedPosting> out;
  EXPECT_TRUE(storage::DecodePostings(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), in.size(),
      &out));
  return out;
}

bool Same(const std::vector<EncodedPosting>& a,
          const std::vector<EncodedPosting>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].to_id != b[i].to_id || a[i].node_id != b[i].node_id ||
        a[i].schema_node != b[i].schema_node) {
      return false;
    }
  }
  return true;
}

TEST(PostingCodecTest, EmptyAndSingle) {
  EXPECT_TRUE(Same({}, RoundTrip({})));
  std::string empty_bytes;
  storage::EncodePostings(nullptr, 0, &empty_bytes);
  EXPECT_TRUE(empty_bytes.empty());

  const std::vector<EncodedPosting> one = {{42, 17, 3}};
  EXPECT_TRUE(Same(one, RoundTrip(one)));
}

TEST(PostingCodecTest, SortedTypicalCompresses) {
  // Build-shaped input: ascending (to_id, node_id), few schema nodes. The
  // codec's reason to exist — sorted lists must beat the 24-byte struct.
  std::vector<EncodedPosting> postings;
  for (int64_t to = 0; to < 500; ++to) {
    for (int64_t n = 0; n < 3; ++n) {
      postings.push_back({to, to * 10 + n, n % 4});
    }
  }
  std::string bytes;
  storage::EncodePostings(postings.data(), postings.size(), &bytes);
  EXPECT_LT(bytes.size(), postings.size() * sizeof(EncodedPosting) / 2);
  EXPECT_TRUE(Same(postings, RoundTrip(postings)));
}

TEST(PostingCodecTest, AdversarialValuesRoundTrip) {
  // Unsorted, negative, and extreme deltas: must still round-trip exactly
  // (it just compresses worse).
  const std::vector<EncodedPosting> postings = {
      {INT64_MAX, INT64_MIN, 0},
      {INT64_MIN, INT64_MAX, -1},
      {0, 0, 0},
      {-1, 1, INT64_MAX},
      {1, -1, INT64_MIN},
  };
  EXPECT_TRUE(Same(postings, RoundTrip(postings)));
}

TEST(PostingCodecTest, RandomUnsortedRoundTrip) {
  Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<EncodedPosting> postings;
    const int n = static_cast<int>(rng.Uniform(0, 200));
    for (int i = 0; i < n; ++i) {
      postings.push_back({rng.Uniform(INT64_MIN / 2, INT64_MAX / 2),
                          rng.Uniform(-1000000, 1000000),
                          rng.Uniform(0, 1 << 20)});
    }
    EXPECT_TRUE(Same(postings, RoundTrip(postings)));
  }
}

TEST(PostingCodecTest, TruncatedAndTrailingBytesRejected) {
  std::vector<EncodedPosting> postings;
  for (int64_t i = 0; i < 50; ++i) postings.push_back({i * 3, i * 7, i % 5});
  std::string bytes;
  storage::EncodePostings(postings.data(), postings.size(), &bytes);

  std::vector<EncodedPosting> out;
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  // Every strict prefix fails (decode demands exactly n postings, no tail).
  EXPECT_FALSE(
      storage::DecodePostings(data, bytes.size() - 1, postings.size(), &out));
  EXPECT_FALSE(storage::DecodePostings(data, 0, postings.size(), &out));
  // Trailing garbage also fails: pos must land exactly on size.
  std::string padded = bytes + std::string(3, '\0');
  EXPECT_FALSE(storage::DecodePostings(
      reinterpret_cast<const uint8_t*>(padded.data()), padded.size(),
      postings.size(), &out));
}

// --- Page store ----------------------------------------------------------

// Golden checksums of the fixed page images in ChecksumIsPinnedToTheFormat.
constexpr uint64_t kGoldenFull = 0x51D7655ACF939941ull;
constexpr uint64_t kGoldenShort = 0x21E49000441C2658ull;
constexpr uint64_t kGoldenEmpty = 0x426442F4318BAE23ull;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + std::to_string(::getpid()) +
         ".xkp";
}

TEST(PageStoreTest, AppendReadRoundTrip) {
  const std::string path = TempPath("roundtrip");
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                          PageStore::Create(path));
  std::string a(100, 'a');
  std::string b(kPagePayload, 'b');
  XK_ASSERT_OK_AND_ASSIGN(PageNo pa,
                          store->AppendPage(PageType::kBlob, a.data(), a.size()));
  XK_ASSERT_OK_AND_ASSIGN(PageNo pb,
                          store->AppendPage(PageType::kBlob, b.data(), b.size()));
  EXPECT_EQ(pa, 0u);
  EXPECT_EQ(pb, 1u);
  EXPECT_EQ(store->num_pages(), 2u);
  EXPECT_EQ(store->file_bytes(), 2 * kPageSize);

  alignas(8) char buf[kPageSize];
  XK_ASSERT_OK(store->ReadPage(pa, buf));
  const auto* header = reinterpret_cast<const storage::PageHeader*>(buf);
  EXPECT_EQ(header->magic, storage::kPageMagic);
  EXPECT_EQ(header->payload_len, a.size());
  EXPECT_EQ(std::string(buf + sizeof(storage::PageHeader), a.size()), a);
  XK_ASSERT_OK(store->VerifyAllPages());
  store.reset();
  ::remove(path.c_str());
}

TEST(PageStoreTest, AppendBytesSpansPages) {
  const std::string path = TempPath("segment");
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                          PageStore::Create(path));
  // 2.5 pages of patterned bytes; byte i must land on page first + i/payload.
  std::string segment(kPagePayload * 5 / 2, '\0');
  for (size_t i = 0; i < segment.size(); ++i) {
    segment[i] = static_cast<char>(i * 1315423911u >> 16);
  }
  XK_ASSERT_OK_AND_ASSIGN(PageNo first,
                          store->AppendBytes(PageType::kPostings, segment));
  EXPECT_EQ(store->num_pages(), 3u);

  std::string read;
  alignas(8) char buf[kPageSize];
  for (PageNo p = first; p < store->num_pages(); ++p) {
    XK_ASSERT_OK(store->ReadPage(p, buf));
    const auto* header = reinterpret_cast<const storage::PageHeader*>(buf);
    read.append(buf + sizeof(storage::PageHeader), header->payload_len);
  }
  EXPECT_EQ(read, segment);
  store.reset();
  ::remove(path.c_str());
}

TEST(PageStoreTest, CorruptByteRejected) {
  const std::string path = TempPath("corrupt");
  {
    XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                            PageStore::Create(path));
    std::string payload(1000, 'x');
    XK_ASSERT_OK(
        store->AppendPage(PageType::kTableRows, payload.data(), payload.size())
            .status());
    XK_ASSERT_OK(store->VerifyAllPages());
  }
  // Flip one payload byte on disk: ReadPage and VerifyAllPages must both
  // report corruption (the checksum covers header + live payload).
  FILE* f = ::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(::fseek(f, sizeof(storage::PageHeader) + 500, SEEK_SET), 0);
  ::fputc('y', f);
  ::fclose(f);

  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> reopened,
                          PageStore::OpenReadOnly(path));
  alignas(8) char buf[kPageSize];
  Status read = reopened->ReadPage(0, buf);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  Status verify = reopened->VerifyAllPages();
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();
  reopened.reset();
  ::remove(path.c_str());
}

TEST(PageStoreTest, TruncatedFileRejected) {
  const std::string path = TempPath("truncated");
  {
    XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                            PageStore::Create(path));
    std::string payload(kPagePayload, 'z');
    XK_ASSERT_OK(
        store->AppendPage(PageType::kBlob, payload.data(), payload.size())
            .status());
  }
  // Tear the tail off: a non-page-multiple file cannot be opened.
  ASSERT_EQ(::truncate(path.c_str(), kPageSize - 512), 0);
  auto reopened = PageStore::OpenReadOnly(path);
  EXPECT_FALSE(reopened.ok());

  // Torn down to a whole-page boundary short of a page: reads past the end
  // must fail rather than fabricate a page.
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> empty,
                          PageStore::OpenReadOnly(path));
  EXPECT_EQ(empty->num_pages(), 0u);
  alignas(8) char buf[kPageSize];
  EXPECT_FALSE(empty->ReadPage(0, buf).ok());
  empty.reset();
  ::remove(path.c_str());
}

// The checksum of a fixed page image is part of the page format: a change
// here means files written by an older build no longer verify, so it must
// come with a kPageMagic bump.
TEST(PageStoreTest, ChecksumIsPinnedToTheFormat) {
  storage::PageHeader h{};
  h.magic = storage::kPageMagic;
  h.page_no = 7;
  h.type = static_cast<uint16_t>(PageType::kTableRows);
  h.payload_len = static_cast<uint32_t>(kPagePayload);
  std::vector<uint8_t> payload(kPagePayload);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  EXPECT_EQ(storage::kPageMagic, 0x58504B32u);
  EXPECT_EQ(storage::ComputePageChecksum(h, payload.data()), kGoldenFull);
  // The stored checksum field is not covered.
  h.checksum = ~0ull;
  EXPECT_EQ(storage::ComputePageChecksum(h, payload.data()), kGoldenFull);
  // A short payload runs both tails: 45 = one stripe + one word + 5 bytes.
  h.payload_len = 45;
  EXPECT_EQ(storage::ComputePageChecksum(h, payload.data()), kGoldenShort);
  h.payload_len = 0;
  EXPECT_EQ(storage::ComputePageChecksum(h, payload.data()), kGoldenEmpty);
}

/// Flips bit `bit` of byte `offset` in the file at `fd`.
void FlipBit(int fd, size_t offset, int bit) {
  uint8_t b;
  ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(offset)), 1);
  b ^= static_cast<uint8_t>(1u << bit);
  ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(offset)), 1);
}

TEST(PageStoreTest, EverySingleBitFlipIsCorruption) {
  const std::string path = TempPath("bitflip");
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                          PageStore::Create(path));
  std::string payload(kPagePayload, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 2654435761u) >> 11);
  }
  XK_ASSERT_OK(store->AppendPage(PageType::kTableRows, payload.data(),
                                 payload.size())
                   .status());
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  // Header prefix, stored checksum and the full payload: every bit of the
  // page is covered by one of magic, page number, length or checksum.
  alignas(8) char buf[kPageSize];
  size_t missed = 0;
  for (size_t offset = 0; offset < kPageSize; ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      FlipBit(fd, offset, bit);
      const Status read = store->ReadPage(0, buf);
      const Status verify = store->VerifyAllPages();
      if (!read.IsCorruption() || !verify.IsCorruption()) {
        if (++missed <= 10) {
          ADD_FAILURE() << "flip of byte " << offset << " bit " << bit
                        << ": ReadPage " << read.ToString()
                        << ", VerifyAllPages " << verify.ToString();
        }
      }
      FlipBit(fd, offset, bit);
    }
  }
  EXPECT_EQ(missed, 0u);
  XK_EXPECT_OK(store->VerifyAllPages());
  ::close(fd);
  store.reset();
  ::remove(path.c_str());
}

TEST(PageStoreTest, PayloadLengthPastThePageRejected) {
  const std::string path = TempPath("badlen");
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                          PageStore::Create(path));
  std::string payload(kPagePayload, 'p');
  XK_ASSERT_OK(
      store->AppendPage(PageType::kBlob, payload.data(), payload.size())
          .status());
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  for (uint32_t len : {static_cast<uint32_t>(kPagePayload + 1),
                       static_cast<uint32_t>(kPageSize), 0xFFFFFFFFu}) {
    // A consistent checksum over the over-long length, so only the length
    // check can reject the page (the checksum reads a padded copy).
    alignas(8) char image[2 * kPageSize] = {};
    ASSERT_EQ(::pread(fd, image, kPageSize, 0),
              static_cast<ssize_t>(kPageSize));
    storage::PageHeader h;
    std::memcpy(&h, image, sizeof(h));
    h.payload_len = len;
    if (len <= kPageSize) {
      h.checksum =
          storage::ComputePageChecksum(h, image + sizeof(storage::PageHeader));
    }
    std::memcpy(image, &h, sizeof(h));
    ASSERT_EQ(::pwrite(fd, image, kPageSize, 0),
              static_cast<ssize_t>(kPageSize));
    alignas(8) char buf[kPageSize];
    const Status read = store->ReadPage(0, buf);
    EXPECT_TRUE(read.IsCorruption()) << read.ToString();
    EXPECT_NE(read.ToString().find("payload length"), std::string::npos)
        << read.ToString();
    EXPECT_TRUE(store->VerifyAllPages().IsCorruption());
  }
  ::close(fd);
  store.reset();
  ::remove(path.c_str());
}

TEST(PageStoreTest, PageImageAtTheWrongPageNumberRejected) {
  const std::string path = TempPath("misplaced");
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                          PageStore::Create(path));
  for (char fill : {'0', '1'}) {
    std::string payload(kPagePayload, fill);
    XK_ASSERT_OK(
        store->AppendPage(PageType::kBlob, payload.data(), payload.size())
            .status());
  }
  XK_ASSERT_OK(store->VerifyAllPages());
  // Copy page 0's intact image over page 1: its checksum still matches its
  // bytes, but it names the wrong page.
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  alignas(8) char image[kPageSize];
  ASSERT_EQ(::pread(fd, image, kPageSize, 0), static_cast<ssize_t>(kPageSize));
  ASSERT_EQ(::pwrite(fd, image, kPageSize, static_cast<off_t>(kPageSize)),
            static_cast<ssize_t>(kPageSize));
  ::close(fd);
  alignas(8) char buf[kPageSize];
  XK_EXPECT_OK(store->ReadPage(0, buf));
  const Status read = store->ReadPage(1, buf);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_NE(read.ToString().find("header names page 0"), std::string::npos)
      << read.ToString();
  EXPECT_TRUE(store->VerifyAllPages().IsCorruption());
  store.reset();
  ::remove(path.c_str());
}

TEST(PageStoreTest, OlderFormatFailsAsBadMagic) {
  const std::string path = TempPath("oldformat");
  XK_ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                          PageStore::Create(path));
  std::string payload(100, 'o');
  XK_ASSERT_OK(
      store->AppendPage(PageType::kBlob, payload.data(), payload.size())
          .status());
  // Stamp the page with the magic of the byte-serial-checksum format.
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const uint32_t old_magic = 0x58504B47;  // "XPKG"
  ASSERT_EQ(::pwrite(fd, &old_magic, sizeof(old_magic), 0),
            static_cast<ssize_t>(sizeof(old_magic)));
  ::close(fd);
  alignas(8) char buf[kPageSize];
  const Status read = store->ReadPage(0, buf);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_NE(read.ToString().find("bad magic"), std::string::npos)
      << read.ToString();
  store.reset();
  ::remove(path.c_str());
}

// --- Buffer pool ---------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("pool");
    store_ = PageStore::Create(path_).MoveValueUnsafe();
    for (int p = 0; p < kNumPages; ++p) {
      std::string payload(kPagePayload, static_cast<char>('a' + p % 26));
      XK_ASSERT_OK(
          store_->AppendPage(PageType::kBlob, payload.data(), payload.size())
              .status());
    }
  }
  void TearDown() override {
    store_.reset();
    ::remove(path_.c_str());
  }

  static constexpr int kNumPages = 16;
  std::string path_;
  std::unique_ptr<PageStore> store_;
};

TEST_F(BufferPoolTest, HitMissAccounting) {
  BufferPool pool(store_.get(), 4 * kPageSize);
  (void)BufferPool::DrainThreadCounters();
  { PageHandle h = pool.Pin(0); }
  { PageHandle h = pool.Pin(0); }
  { PageHandle h = pool.Pin(1); }
  const storage::BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.read_bytes, 2 * kPageSize);
  EXPECT_EQ(stats.evictions, 0u);

  // The thread-local mirror drains the same numbers, then zeroes.
  const storage::ThreadPageCounters tc = BufferPool::DrainThreadCounters();
  EXPECT_EQ(tc.misses, 2u);
  EXPECT_EQ(tc.hits, 1u);
  EXPECT_EQ(tc.read_bytes, 2 * kPageSize);
  const storage::ThreadPageCounters drained = BufferPool::DrainThreadCounters();
  EXPECT_EQ(drained.hits + drained.misses + drained.read_bytes, 0u);
}

TEST_F(BufferPoolTest, EvictionUnderPressureKeepsBudget) {
  // 3-frame budget over 16 pages: sweeping twice must evict and stay within
  // budget, and re-reading evicted pages misses again.
  BufferPool pool(store_.get(), 3 * kPageSize);
  ASSERT_EQ(pool.max_frames(), 3u);
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int p = 0; p < kNumPages; ++p) {
      PageHandle h = pool.Pin(static_cast<PageNo>(p));
      EXPECT_EQ(h.payload()[0], 'a' + p % 26);
      EXPECT_LE(pool.resident_frames(), 3u);
    }
  }
  const storage::BufferPoolStats stats = pool.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.misses, 2u * kNumPages);  // nothing survives the sweep
  EXPECT_EQ(stats.overflow_frames, 0u);
}

TEST_F(BufferPoolTest, PinsBlockEvictionAndOverflow) {
  BufferPool pool(store_.get(), 2 * kPageSize);
  PageHandle a = pool.Pin(0);
  PageHandle b = pool.Pin(1);
  const uint8_t* a_payload = a.payload();
  // Every frame is pinned: further misses must be served via overflow frames
  // rather than evicting a pinned page or deadlocking.
  for (int p = 2; p < 6; ++p) {
    PageHandle h = pool.Pin(static_cast<PageNo>(p));
    EXPECT_EQ(h.payload()[0], 'a' + p % 26);
  }
  EXPECT_GT(pool.Stats().overflow_frames, 0u);
  // The pinned frame never moved while unpinned pages churned through.
  EXPECT_EQ(a.payload(), a_payload);
  EXPECT_EQ(a.payload()[0], 'a');
  EXPECT_EQ(b.payload()[0], 'b');
  a.Release();
  b.Release();
  // With the pins dropped the pool shrinks back under budget on later pins.
  for (int p = 6; p < 10; ++p) {
    PageHandle h = pool.Pin(static_cast<PageNo>(p));
  }
  EXPECT_LE(pool.resident_frames(), 2u);
}

TEST_F(BufferPoolTest, RepinnedPageSurvivesHandleChurn) {
  BufferPool pool(store_.get(), 2 * kPageSize);
  PageHandle first = pool.Pin(3);
  {
    // Second pin on the same frame: releasing it must not unpin the frame.
    PageHandle second = pool.Pin(3);
    EXPECT_EQ(second.payload(), first.payload());
  }
  for (int p = 0; p < 8; ++p) {
    PageHandle h = pool.Pin(static_cast<PageNo>(p));
  }
  EXPECT_EQ(first.payload()[0], 'a' + 3);
}

// The tsan target: concurrent readers hammer a pool far smaller than the
// page set, so pins, misses, evictions and overflow all race. Every thread
// verifies payload bytes under its pin — a frame reclaimed while pinned
// would be caught as a data race (tsan) or a wrong byte (everywhere).
TEST_F(BufferPoolTest, ConcurrentPinsAreSafe) {
  BufferPool pool(store_.get(), 2 * kPageSize);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) * 977 + 11);
      for (int i = 0; i < kItersPerThread; ++i) {
        const int p = static_cast<int>(rng.Uniform(0, kNumPages - 1));
        PageHandle h = pool.Pin(static_cast<PageNo>(p));
        if (h.payload()[0] != 'a' + p % 26 ||
            h.payload()[kPagePayload - 1] != 'a' + p % 26) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
      (void)BufferPool::DrainThreadCounters();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  const storage::BufferPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kItersPerThread);
}

// --- Spill round-trips ---------------------------------------------------

std::unique_ptr<StorageTier> MakeTier(size_t pool_bytes = 4 * kPageSize) {
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.buffer_pool_bytes = pool_bytes;
  return StorageTier::Create(options).MoveValueUnsafe();
}

TEST(StorageTierTest, ReadSegmentAcrossPages) {
  std::unique_ptr<StorageTier> tier = MakeTier();
  std::string segment(kPagePayload * 3 + 1234, '\0');
  for (size_t i = 0; i < segment.size(); ++i) {
    segment[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  XK_ASSERT_OK_AND_ASSIGN(
      PageNo first, tier->store()->AppendBytes(PageType::kBlob, segment));
  EXPECT_EQ(tier->ReadSegment(first, 0, segment.size()), segment);
  // Interior reads crossing a page boundary.
  EXPECT_EQ(tier->ReadSegment(first, kPagePayload - 7, 100),
            segment.substr(kPagePayload - 7, 100));
  EXPECT_EQ(tier->ReadSegment(first, segment.size() - 5, 5),
            segment.substr(segment.size() - 5));
  EXPECT_EQ(tier->ReadSegment(first, 42, 0), "");
}

TEST(StorageTierTest, TableSpillPreservesRowsAndIndexes) {
  std::unique_ptr<StorageTier> tier = MakeTier(2 * kPageSize);
  storage::Table table("R", {"a", "b", "c"});
  Random rng(99);
  constexpr int kRows = 5000;  // ~117 KiB of rows: several pages, pool of 2
  std::vector<storage::Tuple> expect;
  for (int r = 0; r < kRows; ++r) {
    storage::Tuple row = {rng.Uniform(0, 50), rng.Uniform(0, 1000),
                          static_cast<storage::ObjectId>(r)};
    XK_ASSERT_OK(table.Append(row));
    expect.push_back(row);
  }
  XK_ASSERT_OK(table.Cluster({0, 1}));
  // Cluster reorders rows; capture the post-cluster image as the oracle.
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < 3; ++c) {
      expect[static_cast<size_t>(r)][static_cast<size_t>(c)] =
          table.At(static_cast<storage::RowId>(r), c);
    }
  }
  XK_ASSERT_OK(table.BuildCompositeIndex({1}));
  table.Freeze();

  // Memory-side oracle answers before the spill.
  const auto range_mem = table.ClusteredRange(storage::Tuple{17});
  std::vector<storage::RowId> lookup_mem;
  {
    std::vector<storage::RowId> scratch;
    auto span = table.GetCompositeIndex({1})->LookupPrefix(
        storage::TupleView(storage::Tuple{400}), &scratch);
    lookup_mem.assign(span.begin(), span.end());
  }

  XK_ASSERT_OK(table.SpillToDisk(tier.get()));
  ASSERT_TRUE(table.IsPaged());
  EXPECT_GT(table.DiskBytes(), 0u);
  XK_ASSERT_OK(table.SpillToDisk(tier.get()));  // idempotent

  // Every row via At, RowInto and the run-cached cursor.
  storage::TableReadCursor cursor(table);
  storage::Tuple scratch_row;
  for (int r = 0; r < kRows; ++r) {
    const auto rid = static_cast<storage::RowId>(r);
    const storage::TupleView row = table.RowInto(rid, &scratch_row);
    for (int c = 0; c < 3; ++c) {
      const storage::ObjectId want =
          expect[static_cast<size_t>(r)][static_cast<size_t>(c)];
      EXPECT_EQ(table.At(rid, c), want);
      EXPECT_EQ(row[static_cast<size_t>(c)], want);
      EXPECT_EQ(cursor.At(rid, c), want);
    }
  }
  // Clustered range and the spilled composite ordering answer identically.
  EXPECT_EQ(table.ClusteredRange(storage::Tuple{17}), range_mem);
  std::vector<storage::RowId> scratch;
  auto span = table.GetCompositeIndex({1})->LookupPrefix(
      storage::TupleView(storage::Tuple{400}), &scratch);
  EXPECT_EQ(std::vector<storage::RowId>(span.begin(), span.end()), lookup_mem);
  // The pool budget (2 frames) is far below the spilled footprint, so the
  // full-table sweep above must have evicted.
  EXPECT_GT(tier->PoolStats().evictions, 0u);
}

/// A frozen table of `rows` random rows over columns of growing range (few
/// to all-distinct values), clustered on its first column.
storage::Table MakeSpillableTable(int rows) {
  storage::Table table("R", {"a", "b", "c"});
  Random rng(31);
  for (int r = 0; r < rows; ++r) {
    EXPECT_TRUE(table
                    .Append(storage::Tuple{rng.Uniform(0, 40),
                                           rng.Uniform(0, 2000),
                                           static_cast<storage::ObjectId>(r)})
                    .ok());
  }
  EXPECT_TRUE(table.Cluster({0}).ok());
  table.Freeze();
  return table;
}

/// Pool pins (hits + misses) since construction.
uint64_t Pins(const StorageTier& tier) {
  const storage::BufferPoolStats stats = tier.PoolStats();
  return stats.hits + stats.misses;
}

TEST(StorageTierTest, PagedDistinctCountMatchesMemoryAndPinsEachPageOnce) {
  constexpr int kRows = 5000;
  std::unique_ptr<StorageTier> tier = MakeTier(2 * kPageSize);
  const storage::Table in_memory = MakeSpillableTable(kRows);
  storage::Table paged = MakeSpillableTable(kRows);
  XK_ASSERT_OK(paged.SpillToDisk(tier.get()));
  const uint64_t pages =
      (kRows + paged.RowsPerPage() - 1) / paged.RowsPerPage();
  ASSERT_GT(pages, 2u);
  for (int c = 0; c < paged.arity(); ++c) {
    const uint64_t pins_before = Pins(*tier);
    EXPECT_EQ(paged.DistinctCount(c), in_memory.DistinctCount(c)) << c;
    EXPECT_EQ(Pins(*tier) - pins_before, pages) << c;
  }
}

TEST(StorageTierTest, PagedBloomBuildPinsEachPageOnce) {
  // The build scan and the built column's cursor each pin a page once, so a
  // build costs two pins per page, not one per row.
  constexpr int kRows = 5000;
  std::unique_ptr<StorageTier> tier = MakeTier(2 * kPageSize);
  storage::Table table = MakeSpillableTable(kRows);
  XK_ASSERT_OK(table.SpillToDisk(tier.get()));
  const uint64_t pages =
      (kRows + table.RowsPerPage() - 1) / table.RowsPerPage();
  exec::JoinStep step;
  step.table = &table;
  engine::BloomCache cache(/*use_indexes=*/true);
  const uint64_t pins_before = Pins(*tier);
  const storage::BloomFilter* filter =
      cache.GetOrBuild(step, "R", /*column=*/1, /*build_stats=*/nullptr);
  EXPECT_LE(Pins(*tier) - pins_before, 2 * pages);
  ASSERT_NE(filter, nullptr);
  storage::TableReadCursor cursor(table);
  for (int r = 0; r < kRows; ++r) {
    EXPECT_TRUE(filter->MayContain(cursor.At(static_cast<storage::RowId>(r), 1)));
  }
}

TEST(StorageTierTest, PagedTableKeepsTheScanForKeywordFilters) {
  // In memory, a keyword filter on an indexed column seeks; once paged, each
  // lookup would binary-search through pinned pages, so the probe scans —
  // and returns the same rows in the same order.
  std::unique_ptr<StorageTier> tier = MakeTier(2 * kPageSize);
  storage::Table table("R", {"a", "b"});
  Random rng(7);
  for (int r = 0; r < 3000; ++r) {
    XK_ASSERT_OK(table.Append(storage::Tuple{rng.Uniform(0, 300), rng.Uniform(0, 300)}));
  }
  XK_ASSERT_OK(table.Cluster({0, 1}));
  XK_ASSERT_OK(table.BuildCompositeIndex({1, 0}));
  table.Freeze();
  const storage::IdSet keyword = {table.At(0, 1), table.At(1500, 1)};
  auto trace = [&](exec::AccessPathKind* kind) {
    std::vector<storage::RowId> rows;
    *kind = exec::ForEachMatch(table, {}, {{1, &keyword}}, exec::ExecOptions{},
                               [&](storage::RowId r) {
                                 rows.push_back(r);
                                 return true;
                               },
                               nullptr);
    return rows;
  };
  exec::AccessPathKind kind;
  const std::vector<storage::RowId> in_memory = trace(&kind);
  EXPECT_EQ(kind, exec::AccessPathKind::kKeywordSeek);
  ASSERT_FALSE(in_memory.empty());

  XK_ASSERT_OK(table.SpillToDisk(tier.get()));
  EXPECT_EQ(trace(&kind), in_memory);
  EXPECT_EQ(kind, exec::AccessPathKind::kFullScan);
}

TEST(StorageTierTest, BlobStoreSpillRoundTrip) {
  std::unique_ptr<StorageTier> tier = MakeTier();
  storage::BlobStore store;
  Random rng(5);
  std::vector<std::string> blobs;
  for (storage::ObjectId o = 0; o < 64; ++o) {
    std::string blob(static_cast<size_t>(rng.Uniform(0, 2000)),
                     static_cast<char>('A' + o % 26));
    blobs.push_back(blob);
    XK_ASSERT_OK(store.Put(o, std::move(blob)));
  }
  const size_t bytes_before = store.size();
  XK_ASSERT_OK(store.SpillToDisk(tier.get()));
  ASSERT_TRUE(store.IsPaged());
  XK_ASSERT_OK(store.SpillToDisk(tier.get()));  // idempotent
  EXPECT_EQ(store.size(), bytes_before);
  EXPECT_GT(store.DiskBytes(), 0u);
  for (storage::ObjectId o = 0; o < 64; ++o) {
    ASSERT_TRUE(store.Contains(o));
    XK_ASSERT_OK_AND_ASSIGN(std::string blob, store.Get(o));
    EXPECT_EQ(blob, blobs[static_cast<size_t>(o)]);
  }
  EXPECT_FALSE(store.Contains(64));
  EXPECT_FALSE(store.Get(64).ok());
  // Post-spill appends are refused: the segment is immutable.
  EXPECT_FALSE(store.Put(100, "late").ok());
}

TEST(StorageTierTest, MasterIndexSpillPreservesLists) {
  // Two identical loads; spill one. Containing lists, schema-node sets and
  // slices must match posting for posting.
  auto db = testing::MakeFigure1Database();
  StorageOptions disk;
  disk.backend = StorageBackend::kDisk;
  disk.buffer_pool_bytes = 2 * kPageSize;
  XK_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<XKeyword> mem,
      XKeyword::Load(&db->graph, &db->schema, db->tss.get()));
  XK_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<XKeyword> spilled,
      XKeyword::Load(&db->graph, &db->schema, db->tss.get(), disk));
  if (spilled->data().storage_options.backend != StorageBackend::kDisk) {
    GTEST_SKIP() << "XK_STORAGE_BACKEND override forces the memory backend";
  }
  const keyword::MasterIndex& a = mem->master_index();
  const keyword::MasterIndex& b = spilled->master_index();
  ASSERT_TRUE(b.IsPaged());
  EXPECT_FALSE(a.IsPaged());
  EXPECT_EQ(a.NumKeywords(), b.NumKeywords());
  EXPECT_EQ(a.NumPostings(), b.NumPostings());
  EXPECT_GT(b.CompressedBytes(), 0u);
  for (const std::string k : {"john", "vcr", "tv", "smith", "nosuchword"}) {
    const keyword::PostingList la = a.ContainingList(k);
    const keyword::PostingList lb = b.ContainingList(k);
    ASSERT_EQ(la.size(), lb.size()) << k;
    for (size_t i = 0; i < la.size(); ++i) EXPECT_EQ(la[i], lb[i]) << k;
    EXPECT_EQ(a.SchemaNodesContaining(k), b.SchemaNodesContaining(k)) << k;
  }
}

// --- Memory-vs-disk differential matrix ----------------------------------

class DiskBackendDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpConfig config;
    config.num_conferences = 3;
    config.years_per_conference = 3;
    config.avg_papers_per_year = 6;
    config.avg_citations_per_paper = 3.0;
    config.author_vocab = 25;
    config.title_vocab = 30;
    config.seed = 4242;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();

    oracle_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
                  .MoveValueUnsafe();
    XK_ASSERT_OK(oracle_->AddDecomposition(
        decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/4).MoveValueUnsafe()));

    StorageOptions disk;
    disk.backend = StorageBackend::kDisk;
    disk.buffer_pool_bytes = kPoolBytes;
    disk_ = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss(), disk)
                .MoveValueUnsafe();
    XK_ASSERT_OK(disk_->AddDecomposition(
        decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/4).MoveValueUnsafe()));

    Random rng(17);
    for (int i = 0; i < 3; ++i) {
      queries_.push_back(
          {rng.Pick(db_->author_names()), rng.Pick(db_->title_words())});
    }
  }

  QueryRequest MakeRequest(const std::vector<std::string>& keywords,
                           QueryMode mode, const QueryOptions& options) {
    QueryRequest request;
    request.keywords = keywords;
    request.decomposition = "XKeyword";
    request.mode = mode;
    request.options = options;
    return request;
  }

  // Two frames: any query touching three distinct pages (every join does)
  // runs under genuine eviction pressure, not from cache.
  static constexpr size_t kPoolBytes = 2 * kPageSize;
  std::unique_ptr<datagen::DblpDatabase> db_;
  std::unique_ptr<XKeyword> oracle_;
  std::unique_ptr<XKeyword> disk_;
  std::vector<std::vector<std::string>> queries_;
};

TEST_F(DiskBackendDifferential, ByteIdenticalAcrossModesAndKnobs) {
  const storage::StorageTier* tier = disk_->data().storage_tier.get();
  ASSERT_NE(tier, nullptr);
  // The acceptance bar: the paged dataset dwarfs the pool budget, so the
  // matrix below runs under genuine eviction pressure, not from cache.
  ASSERT_GE(tier->FileBytes(), 4 * kPoolBytes);

  for (const auto& q : queries_) {
    for (QueryMode mode :
         {QueryMode::kTopK, QueryMode::kNaive, QueryMode::kAll}) {
      for (int threads : {1, 4}) {
        QueryOptions options;
        options.max_size_z = 4;
        options.num_threads = threads;
        const std::string what =
            q[0] + " " + q[1] + " mode=" + std::to_string(static_cast<int>(mode)) +
            " threads=" + std::to_string(threads);
        const QueryRequest request = MakeRequest(q, mode, options);
        auto expected = oracle_->Run(request);
        auto actual = disk_->Run(request);
        ASSERT_TRUE(expected.ok()) << what;
        ASSERT_TRUE(actual.ok()) << what;
        EXPECT_EQ(expected.value().mttons, actual.value().mttons) << what;
      }
    }
  }
  EXPECT_GT(tier->PoolStats().evictions, 0u);
}

// The page file written by Load + AddDecomposition is pinned byte for byte:
// relations spill one at a time in catalog-name order, so however the
// relations are built, every table and ordering lands on the same pages and
// a disk workload's page misses stay the same. The digest was recorded from
// the serial build.
TEST_F(DiskBackendDifferential, PageFileAfterAddDecompositionIsGolden) {
  storage::StorageTier* tier = disk_->data().storage_tier.get();
  ASSERT_NE(tier, nullptr);
  const size_t pages = tier->store()->num_pages();
  std::vector<char> page(kPageSize);
  uint64_t h = 1469598103934665603ULL;
  for (PageNo p = 0; p < pages; ++p) {
    XK_ASSERT_OK(tier->store()->ReadPage(p, page.data()));
    for (char c : page) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(pages, size_t{46});
  EXPECT_EQ(h, uint64_t{17564553267297724992ULL});
}

TEST_F(DiskBackendDifferential, PageCountersReachResponseStats) {
  QueryOptions options;
  options.max_size_z = 4;
  const QueryRequest request =
      MakeRequest(queries_[0], QueryMode::kTopK, options);
  XK_ASSERT_OK_AND_ASSIGN(engine::QueryResponse on_disk, disk_->Run(request));
  EXPECT_GT(on_disk.stats.page_hits + on_disk.stats.page_misses, 0u);
  XK_ASSERT_OK_AND_ASSIGN(engine::QueryResponse in_mem, oracle_->Run(request));
  EXPECT_EQ(in_mem.stats.page_hits, 0u);
  EXPECT_EQ(in_mem.stats.page_misses, 0u);
  EXPECT_EQ(in_mem.stats.page_read_bytes, 0u);

  // The serving layer surfaces the same counters: feed the response through
  // Metrics the way QueryService does and read them back in the snapshot.
  service::Metrics metrics;
  metrics.OnStart();
  metrics.OnFinish(request.decomposition, Status(), &on_disk,
                   std::chrono::milliseconds(1));
  const service::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.page_hits, on_disk.stats.page_hits);
  EXPECT_EQ(snap.page_misses, on_disk.stats.page_misses);
  EXPECT_EQ(snap.page_read_bytes, on_disk.stats.page_read_bytes);
}

}  // namespace
}  // namespace xk
