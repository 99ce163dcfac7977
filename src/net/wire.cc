#include "net/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace xk::net {

namespace {

// --- Little-endian primitive writers into a growing frame buffer ----------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }
void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutMtton(std::string* out, const present::Mtton& m) {
  PutI32(out, m.ctssn_index);
  PutI32(out, m.score);
  PutU32(out, static_cast<uint32_t>(m.objects.size()));
  for (storage::ObjectId id : m.objects) PutI64(out, id);
}

void PutMttons(std::string* out, std::span<const present::Mtton> mttons) {
  PutU32(out, static_cast<uint32_t>(mttons.size()));
  for (const present::Mtton& m : mttons) PutMtton(out, m);
}

void PutOptions(std::string* out, const engine::QueryOptions& o) {
  PutI32(out, o.max_size_z);
  PutI32(out, o.max_network_size);
  PutU64(out, o.per_network_k);
  PutU64(out, o.global_k);
  PutU8(out, o.enable_cache ? 1 : 0);
  PutU64(out, o.cache_capacity);
  PutI32(out, o.num_threads);
  PutF64(out, o.anytime_cost_budget);
}

void PutStats(std::string* out, const engine::ExecutionStats& s) {
  PutU64(out, s.probes.probes);
  PutU64(out, s.probes.rows_scanned);
  PutU64(out, s.probes.rows_matched);
  PutU64(out, s.probes.bloom_skips);
  PutU64(out, s.cache_hits);
  PutU64(out, s.cache_misses);
  PutU64(out, s.results);
  PutU64(out, s.reuse_hits);
  PutU64(out, s.reuse_misses);
  PutU64(out, s.bloom_build_rows);
  PutU64(out, s.subplan_hits);
  PutU64(out, s.subplan_misses);
  PutU64(out, s.subplan_bytes);
  PutU64(out, s.dedup_saved_rows);
}

/// Starts a frame: 4-byte length placeholder + payload head. SealFrame
/// backfills the length once the payload is complete.
std::string BeginFrame(FrameType type, uint64_t request_id) {
  std::string frame;
  PutU32(&frame, 0);  // placeholder
  PutU8(&frame, static_cast<uint8_t>(type));
  PutU64(&frame, request_id);
  return frame;
}

std::string SealFrame(std::string frame) {
  const uint32_t payload = static_cast<uint32_t>(frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<size_t>(i)] =
        static_cast<char>((payload >> (8 * i)) & 0xff);
  }
  return frame;
}

// --- Cursor-based reader with sticky failure -------------------------------

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

  uint8_t GetU8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }

  uint32_t GetU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  uint64_t GetU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }

  double GetF64() {
    const uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string GetString() {
    const uint32_t n = GetU32();
    if (!Need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  present::Mtton GetMtton() {
    present::Mtton m;
    m.ctssn_index = GetI32();
    m.score = GetI32();
    const uint32_t n = GetU32();
    // Bound the reserve by what the payload can actually hold (8 bytes per
    // object id) so a corrupt count cannot drive a huge allocation.
    if (!Need(static_cast<size_t>(n) * 8)) return m;
    m.objects.reserve(n);
    for (uint32_t i = 0; i < n; ++i) m.objects.push_back(GetI64());
    return m;
  }

  std::vector<present::Mtton> GetMttons() {
    std::vector<present::Mtton> mttons;
    const uint32_t n = GetU32();
    for (uint32_t i = 0; i < n && ok_; ++i) mttons.push_back(GetMtton());
    return mttons;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status MalformedError(const char* what) {
  return Status::Corruption(StrFormat("malformed frame: %s", what));
}

/// Skips the 9-byte head (type + request_id) a body decoder does not
/// re-examine; DecodeFrameHead validated it already.
bool SkipHead(Reader* r) {
  r->GetU8();
  r->GetU64();
  return r->ok();
}

}  // namespace

// --- Encoders --------------------------------------------------------------

std::string EncodeQueryFrame(uint64_t request_id,
                             const engine::QueryRequest& request) {
  std::string frame = BeginFrame(FrameType::kQuery, request_id);
  PutU32(&frame, static_cast<uint32_t>(request.keywords.size()));
  for (const std::string& k : request.keywords) PutString(&frame, k);
  PutString(&frame, request.decomposition);
  PutU8(&frame, static_cast<uint8_t>(request.mode));
  PutI64(&frame, request.deadline.count());
  PutU8(&frame, static_cast<uint8_t>(request.cache_mode));
  PutOptions(&frame, request.options);
  return SealFrame(std::move(frame));
}

std::string EncodeCancelFrame(uint64_t request_id) {
  return SealFrame(BeginFrame(FrameType::kCancel, request_id));
}

std::string EncodeBatchFrame(uint64_t request_id,
                             std::span<const present::Mtton> batch) {
  std::string frame = BeginFrame(FrameType::kBatch, request_id);
  PutMttons(&frame, batch);
  return SealFrame(std::move(frame));
}

std::string EncodeFinalFrame(uint64_t request_id,
                             const engine::QueryResponse& response,
                             size_t tail_start) {
  std::string frame = BeginFrame(FrameType::kFinal, request_id);
  PutU8(&frame, static_cast<uint8_t>(response.status.code()));
  PutString(&frame, response.status.message());
  PutU8(&frame, static_cast<uint8_t>(response.completeness));
  PutU32(&frame, response.coverage.cns_executed);
  PutU32(&frame, response.coverage.cns_skipped);
  PutI32(&frame, response.coverage.exhausted_class);
  PutU8(&frame, response.coverage.interrupted ? 1 : 0);
  PutStats(&frame, response.stats);
  PutU64(&frame, static_cast<uint64_t>(tail_start));
  PutMttons(&frame, std::span<const present::Mtton>(response.mttons)
                        .subspan(std::min(tail_start, response.mttons.size())));
  return SealFrame(std::move(frame));
}

std::string EncodeErrorFrame(uint64_t request_id, const Status& error) {
  std::string frame = BeginFrame(FrameType::kError, request_id);
  PutU8(&frame, static_cast<uint8_t>(error.code()));
  PutString(&frame, error.message());
  return SealFrame(std::move(frame));
}

// --- Decoders --------------------------------------------------------------

Result<FrameHead> DecodeFrameHead(std::span<const uint8_t> payload) {
  Reader r(payload);
  FrameHead head;
  const uint8_t type = r.GetU8();
  head.request_id = r.GetU64();
  if (!r.ok()) return MalformedError("truncated head");
  if (type < static_cast<uint8_t>(FrameType::kQuery) ||
      type > static_cast<uint8_t>(FrameType::kError)) {
    return MalformedError("unknown frame type");
  }
  head.type = static_cast<FrameType>(type);
  return head;
}

Result<engine::QueryRequest> DecodeQueryBody(std::span<const uint8_t> payload) {
  Reader r(payload);
  if (!SkipHead(&r)) return MalformedError("truncated head");
  engine::QueryRequest req;
  const uint32_t num_keywords = r.GetU32();
  for (uint32_t i = 0; i < num_keywords && r.ok(); ++i) {
    req.keywords.push_back(r.GetString());
  }
  req.decomposition = r.GetString();
  const uint8_t mode = r.GetU8();
  if (mode > static_cast<uint8_t>(engine::QueryMode::kAll)) {
    return MalformedError("bad query mode");
  }
  req.mode = static_cast<engine::QueryMode>(mode);
  req.deadline = std::chrono::nanoseconds(r.GetI64());
  const uint8_t cache_mode = r.GetU8();
  if (cache_mode > static_cast<uint8_t>(engine::CacheMode::kRefresh)) {
    return MalformedError("bad cache mode");
  }
  req.cache_mode = static_cast<engine::CacheMode>(cache_mode);

  engine::QueryOptions& o = req.options;
  o.max_size_z = r.GetI32();
  o.max_network_size = r.GetI32();
  o.per_network_k = r.GetU64();
  o.global_k = r.GetU64();
  o.enable_cache = r.GetU8() != 0;
  o.cache_capacity = r.GetU64();
  o.num_threads = r.GetI32();
  o.anytime_cost_budget = r.GetF64();
  if (!r.AtEnd()) return MalformedError("bad query body");
  return req;
}

Result<std::vector<present::Mtton>> DecodeBatchBody(
    std::span<const uint8_t> payload) {
  Reader r(payload);
  if (!SkipHead(&r)) return MalformedError("truncated head");
  std::vector<present::Mtton> mttons = r.GetMttons();
  if (!r.AtEnd()) return MalformedError("bad batch body");
  return mttons;
}

Result<FinalBody> DecodeFinalBody(std::span<const uint8_t> payload) {
  Reader r(payload);
  if (!SkipHead(&r)) return MalformedError("truncated head");
  FinalBody body;
  const uint8_t code = r.GetU8();
  const std::string msg = r.GetString();
  if (code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return MalformedError("bad status code");
  }
  body.response.status = code == 0
                             ? Status::OK()
                             : Status(static_cast<StatusCode>(code), msg);
  const uint8_t completeness = r.GetU8();
  if (completeness > static_cast<uint8_t>(engine::Completeness::kFailed)) {
    return MalformedError("bad completeness");
  }
  body.response.completeness = static_cast<engine::Completeness>(completeness);
  body.response.coverage.cns_executed = r.GetU32();
  body.response.coverage.cns_skipped = r.GetU32();
  body.response.coverage.exhausted_class = r.GetI32();
  body.response.coverage.interrupted = r.GetU8() != 0;
  engine::ExecutionStats& s = body.response.stats;
  s.probes.probes = r.GetU64();
  s.probes.rows_scanned = r.GetU64();
  s.probes.rows_matched = r.GetU64();
  s.probes.bloom_skips = r.GetU64();
  s.cache_hits = r.GetU64();
  s.cache_misses = r.GetU64();
  s.results = r.GetU64();
  s.reuse_hits = r.GetU64();
  s.reuse_misses = r.GetU64();
  s.bloom_build_rows = r.GetU64();
  s.subplan_hits = r.GetU64();
  s.subplan_misses = r.GetU64();
  s.subplan_bytes = r.GetU64();
  s.dedup_saved_rows = r.GetU64();
  body.tail_start = r.GetU64();
  body.response.mttons = r.GetMttons();
  if (!r.AtEnd()) return MalformedError("bad final body");
  return body;
}

Status DecodeErrorBody(std::span<const uint8_t> payload, Status* error) {
  Reader r(payload);
  if (!SkipHead(&r)) return MalformedError("truncated head");
  const uint8_t code = r.GetU8();
  const std::string msg = r.GetString();
  if (!r.AtEnd() || code == 0 ||
      code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return MalformedError("bad error body");
  }
  *error = Status(static_cast<StatusCode>(code), msg);
  return Status::OK();
}

// --- Framed socket I/O -----------------------------------------------------

namespace {

/// Reads exactly `size` bytes. Returns 1 on success, 0 on clean EOF before
/// the first byte, -1 on mid-buffer EOF or socket error.
int ReadExact(int fd, uint8_t* buf, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = recv(fd, buf + got, size - got, 0);
    if (n == 0) return got == 0 ? 0 : -1;
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(n);
  }
  return 1;
}

}  // namespace

Status ReadFrame(int fd, std::vector<uint8_t>* payload,
                 uint32_t max_frame_bytes) {
  uint8_t prefix[4];
  const int head = ReadExact(fd, prefix, sizeof(prefix));
  if (head == 0) return Status::Aborted("connection closed");
  if (head < 0) return Status::Corruption("truncated frame prefix");
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(prefix[i]) << (8 * i);
  }
  if (length < 9) return Status::Corruption("frame shorter than its head");
  if (length > max_frame_bytes) {
    return Status::Corruption(
        StrFormat("frame of %u bytes exceeds the %u-byte limit", length,
                  max_frame_bytes));
  }
  payload->resize(length);
  if (ReadExact(fd, payload->data(), length) != 1) {
    return Status::Corruption("truncated frame payload");
  }
  return Status::OK();
}

Status WriteAll(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Aborted("peer closed the connection");
      }
      return Status::Internal(StrFormat("send failed: %s", strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace xk::net
