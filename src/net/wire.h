// Copyright (c) the XKeyword authors.
//
// The socket wire protocol between net::Client and net::Server: a stream of
// length-prefixed binary frames over one TCP (loopback) connection.
//
//   frame    := u32 payload_length (little-endian) | payload
//   payload  := u8 frame_type | u64 request_id | type-specific body
//
// Client -> server:
//   kQuery   — one engine::QueryRequest (keywords, decomposition, mode,
//              deadline, cache mode, every QueryOptions scalar knob the
//              library reads; `vectorized` and `kernel_dispatch` are not
//              sent). The server rejects a second kQuery while one is in
//              flight on the same connection with a kError frame.
//   kCancel  — cooperative cancel of the in-flight query named by request_id.
//
// Server -> client:
//   kBatch   — a finalized prefix chunk of the in-flight query's MTTON list
//              (engine::ResultSink semantics: concatenating the batches in
//              arrival order yields a prefix of the final sorted answer).
//   kFinal   — the query is done: status, completeness, coverage, execution
//              stats, and the *tail* of the MTTON list (everything not
//              already shipped in kBatch frames). The client reassembles
//              the full response as concat(batches) + tail, byte-identical
//              to QueryService::Submit(...).Wait() in process.
//   kError   — request-level failure with no response (admission rejection,
//              protocol violation). request_id 0 = connection-level fault
//              (e.g. malformed frame); the server closes after sending it.
//
// Integers are little-endian and fixed-width; strings and vectors are
// u32-count-prefixed. Both ends enforce `kMaxFrameBytes` before trusting a
// length prefix, so a corrupt or hostile peer cannot trigger an unbounded
// allocation — an oversized or short frame is a kCorruption decode error,
// which the server answers with kError and a close (counted in
// Metrics::OnMalformedFrame).

#ifndef XK_NET_WIRE_H_
#define XK_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_request.h"
#include "present/mtton.h"

namespace xk::net {

/// Hard ceiling on one frame's payload, checked before allocation on both
/// ends. Generous: a 64 MiB frame holds ~2M MTTON occurrence rows.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : uint8_t {
  kQuery = 1,
  kCancel = 2,
  kBatch = 3,
  kFinal = 4,
  kError = 5,
};

// --- Encoding (returns a complete frame: length prefix + payload) ---------

std::string EncodeQueryFrame(uint64_t request_id,
                             const engine::QueryRequest& request);
std::string EncodeCancelFrame(uint64_t request_id);
std::string EncodeBatchFrame(uint64_t request_id,
                             std::span<const present::Mtton> batch);
/// Final frame for `response`, shipping only mttons[tail_start..] (the part
/// no kBatch frame already delivered).
std::string EncodeFinalFrame(uint64_t request_id,
                             const engine::QueryResponse& response,
                             size_t tail_start);
std::string EncodeErrorFrame(uint64_t request_id, const Status& error);

// --- Decoding (operates on one frame's payload, prefix already stripped) --

/// The type-independent head of a payload. Decode this first, then the body.
struct FrameHead {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
};
Result<FrameHead> DecodeFrameHead(std::span<const uint8_t> payload);

Result<engine::QueryRequest> DecodeQueryBody(std::span<const uint8_t> payload);
Result<std::vector<present::Mtton>> DecodeBatchBody(
    std::span<const uint8_t> payload);

/// A decoded kFinal body: the response carries only the MTTON tail; the
/// caller prepends the batches it saw. `tail_start` echoes the encoder's
/// split point so the client can verify it saw exactly that many streamed
/// results before the final frame.
struct FinalBody {
  engine::QueryResponse response;
  uint64_t tail_start = 0;
};
Result<FinalBody> DecodeFinalBody(std::span<const uint8_t> payload);

/// Reconstructs the Status a kError frame carries into `*error`; the return
/// value is the decode outcome (kCorruption on a malformed body).
Status DecodeErrorBody(std::span<const uint8_t> payload, Status* error);

// --- Blocking framed I/O over a connected socket --------------------------

/// Reads exactly one frame payload. kAborted = the peer closed the
/// connection cleanly at a frame boundary; kCorruption = oversized length
/// prefix or mid-frame EOF; kInternal = socket error.
Status ReadFrame(int fd, std::vector<uint8_t>* payload,
                 uint32_t max_frame_bytes = kMaxFrameBytes);

/// Writes the complete buffer (handling short writes; MSG_NOSIGNAL so a dead
/// peer surfaces as a Status, not SIGPIPE). kAborted = peer gone.
Status WriteAll(int fd, const void* data, size_t size);

}  // namespace xk::net

#endif  // XK_NET_WIRE_H_
