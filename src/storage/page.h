// Copyright (c) the XKeyword authors.
//
// On-disk page format of the disk-resident storage tier (ROADMAP item 2,
// after EMBANKS): fixed-size little-endian pages, each carrying a checksummed
// header, appended to one store file at load time and read back through the
// buffer pool at query time. The file is write-once per page — pages are
// immutable after append, so the pool never writes back and eviction is a
// plain drop.
//
// Also defines the byte-level varint / zigzag codec the compressed posting
// lists use. Postings are (to_id, node_id)-sorted at build, so consecutive
// deltas are tiny and one posting typically encodes in 3-5 bytes against the
// 24-byte in-memory struct.

#ifndef XK_STORAGE_PAGE_H_
#define XK_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xk::storage {

/// Fixed page size. Rows, index entries and posting bytes never straddle the
/// header: every page is header + payload.
inline constexpr size_t kPageSize = 8192;

/// Version tag of the page format. Bump it with any change to the page
/// layout or the checksum, so that a file in an older format fails as "bad
/// magic" instead of as a checksum mismatch on every page.
inline constexpr uint32_t kPageMagic = 0x58504B33;  // "XPK3"

/// What a page's payload holds. Purely diagnostic — readers know what they
/// are looking for from the directory entry that pointed them at the page.
enum class PageType : uint16_t {
  kFree = 0,
  kTableRows = 1,   // row-major ObjectId tuples, whole rows only
  kIndexOrder = 2,  // one composite index: n lead ObjectIds, then n RowIds
  kPostings = 3,    // delta+varint compressed posting bytes
  kBlob = 4,        // serialized target-object fragments
};

/// 24-byte little-endian page header. `checksum` covers the header fields
/// before it plus the first `payload_len` payload bytes, so a torn write,
/// a bit flip, or a page read back at the wrong offset all fail verification
/// (see ComputePageChecksum).
struct PageHeader {
  uint32_t magic;
  uint32_t page_no;
  uint16_t type;
  uint16_t reserved;
  uint32_t payload_len;
  uint64_t checksum;
};
static_assert(sizeof(PageHeader) == 24, "page header layout");

inline constexpr size_t kPagePayload = kPageSize - sizeof(PageHeader);

// --- Page checksum ---------------------------------------------------------
//
// xxHash64-style rounds over 8-byte little-endian words: four independent
// lanes take the 32-byte stripes, leftover words and bytes fold into the
// combined state, and a final mix spreads every bit. Each step is a
// bijection of its accumulator for a fixed input and of its input for a
// fixed accumulator, so a page whose covered bytes differ from the
// checksummed image in one word (in particular, by any single bit flip)
// always gets a different checksum. (A flip in `payload_len` also changes
// how many bytes are covered; ReadPage rejects a length past the payload,
// and a shorter one is caught with the odds of any 64-bit tag.) The four
// lanes' multiplies are independent, so a page costs a fraction of a
// byte-serial hash.

namespace page_checksum_internal {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// Host-order load; the page format (headers included) is little-endian.
inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Bijective in `acc` for fixed `w` and in `w` for fixed `acc` (odd
/// multipliers, add, rotate).
inline uint64_t Round(uint64_t acc, uint64_t w) {
  return Rotl(acc + w * kP2, 31) * kP1;
}

}  // namespace page_checksum_internal

/// Checksum of a fully assembled page image (header filled, checksum field
/// ignored): the 16-byte header prefix, which carries `payload_len`, then
/// the live payload bytes. Corruption detection, not crypto.
inline uint64_t ComputePageChecksum(const PageHeader& h, const void* payload) {
  using namespace page_checksum_internal;
  static_assert(offsetof(PageHeader, checksum) == 16, "two header words");
  uint8_t prefix[16];
  std::memcpy(prefix, &h, sizeof(prefix));
  // The header prefix opens lanes 0 and 1.
  uint64_t v0 = Round(kP1 + kP2, Load64(prefix));
  uint64_t v1 = Round(kP2, Load64(prefix + 8));
  uint64_t v2 = kP3;
  uint64_t v3 = kP4;
  const auto* p = static_cast<const uint8_t*>(payload);
  const size_t n = h.payload_len;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    v0 = Round(v0, Load64(p + i));
    v1 = Round(v1, Load64(p + i + 8));
    v2 = Round(v2, Load64(p + i + 16));
    v3 = Round(v3, Load64(p + i + 24));
  }
  // Chained rounds keep the combine bijective in each lane.
  uint64_t acc = Round(Round(Round(v0, v1), v2), v3);
  for (; i + 8 <= n; i += 8) acc = Round(acc, Load64(p + i));
  for (; i < n; ++i) acc = Rotl(acc ^ (p[i] * kP5), 11) * kP1;
  acc ^= acc >> 33;
  acc *= kP2;
  acc ^= acc >> 29;
  acc *= kP3;
  acc ^= acc >> 32;
  return acc;
}

// --- Varint / zigzag codec ----------------------------------------------

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Appends `v` as LEB128 (1-10 bytes).
inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Reads one varint from [*pos, end); returns false on truncation or a
/// varint longer than 10 bytes (corrupt input).
inline bool GetVarint(const uint8_t* data, size_t size, size_t* pos,
                      uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < size && shift <= 63) {
    const uint8_t b = data[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

// --- Posting codec --------------------------------------------------------
//
// Zigzag deltas against the previous posting for all three fields. Sorted
// input makes to_id deltas non-negative and tiny; node ids within one target
// object are ascending; schema nodes repeat heavily. Unsorted (adversarial)
// input still round-trips — it just compresses worse.

struct EncodedPosting {
  int64_t to_id;
  int64_t node_id;
  int64_t schema_node;
};

inline void EncodePostings(const EncodedPosting* postings, size_t n,
                           std::string* out) {
  int64_t prev_to = 0, prev_node = 0, prev_schema = 0;
  for (size_t i = 0; i < n; ++i) {
    PutVarint(out, ZigZagEncode(postings[i].to_id - prev_to));
    PutVarint(out, ZigZagEncode(postings[i].node_id - prev_node));
    PutVarint(out, ZigZagEncode(postings[i].schema_node - prev_schema));
    prev_to = postings[i].to_id;
    prev_node = postings[i].node_id;
    prev_schema = postings[i].schema_node;
  }
}

/// Decodes exactly `n` postings; false on truncated / corrupt bytes.
inline bool DecodePostings(const uint8_t* data, size_t size, size_t n,
                           std::vector<EncodedPosting>* out) {
  out->clear();
  out->reserve(n);
  size_t pos = 0;
  int64_t prev_to = 0, prev_node = 0, prev_schema = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t dt, dn, ds;
    if (!GetVarint(data, size, &pos, &dt) ||
        !GetVarint(data, size, &pos, &dn) ||
        !GetVarint(data, size, &pos, &ds)) {
      return false;
    }
    prev_to += ZigZagDecode(dt);
    prev_node += ZigZagDecode(dn);
    prev_schema += ZigZagDecode(ds);
    out->push_back(EncodedPosting{prev_to, prev_node, prev_schema});
  }
  return pos == size;
}

}  // namespace xk::storage

#endif  // XK_STORAGE_PAGE_H_
