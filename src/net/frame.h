#ifndef UPSKILL_NET_FRAME_H_
#define UPSKILL_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/recommend.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace upskill {
namespace net {

/// Length-prefixed binary framing of the serving protocol, the compact
/// twin of the newline text grammar in serve/protocol.h. Every frame is
///
///   byte 0      magic        0xF5 request / 0xF6 response
///   byte 1      request: opcode  = ServeRequest::Kind value
///               response: status = StatusCode value (0 = ok)
///   bytes 2..5  payload length, u32 little-endian
///   bytes 6..   payload (opcode/status-specific, packed little-endian)
///
/// The magic bytes are outside 7-bit ASCII, so a TCP connection's first
/// byte distinguishes binary clients from text-protocol clients (which
/// start with a lowercase command keyword); see net/net_server.h.
///
/// Request payloads (strings are u16 length + raw bytes, no terminator):
///   observe     user, i32 item, u8 has_time, i64 time
///   level       user
///   recommend   user, i32 top_k, f64 stretch
///   difficulty  i32 item
///   swap        path
///   evict       i64 min_time
///   stats/reset/quit   (empty)
///
/// Ok-response payloads:
///   observe/level      i32 level, u64 actions
///   recommend          u32 n, then n x (i32 item, f64 difficulty, f64 log_prob)
///   difficulty         f64 difficulty
///   swap               i32 levels, i32 items
///   evict              u64 evicted, u64 sessions
///   stats              the text-protocol stats block, verbatim UTF-8
///   reset/quit         (empty)
/// Error-response payload: the status message, verbatim UTF-8. Shed
/// rejections use status Unavailable with a message whose first token is
/// the stable marker `shed`.

inline constexpr uint8_t kRequestMagic = 0xF5;
inline constexpr uint8_t kResponseMagic = 0xF6;
inline constexpr size_t kFrameHeaderBytes = 6;
/// Default ceiling on one frame's payload; a header announcing more is a
/// decode error, not a "wait for more bytes" condition, so one malformed
/// length byte cannot pin a connection's memory.
inline constexpr size_t kDefaultMaxPayloadBytes = 1 << 20;

/// Incremental decoder outcome: a complete frame, a valid prefix that
/// needs more bytes, or a malformed stream (close the connection).
enum class DecodeStatus { kFrame, kNeedMore, kError };

struct DecodedRequest {
  serve::ServeRequest request;
  /// Bytes consumed from the input on kFrame.
  size_t frame_bytes = 0;
};

/// Attempts to decode one request frame from `data[0..size)`.
/// On kError, `error` (when non-null) gets a one-line reason.
DecodeStatus DecodeRequest(const char* data, size_t size,
                           size_t max_payload_bytes, DecodedRequest* out,
                           std::string* error);

/// Appends one encoded request frame to `out`.
void EncodeRequest(const serve::ServeRequest& request, std::string* out);

// --- Response encoding (server side; append-only, no intermediate copy) ---

/// Appends the frame answering a `kind` request with `response` (the
/// payload layout above, or the error payload for a non-OK status).
void EncodeResponse(const serve::ServeResponse& response,
                    serve::ServeRequest::Kind kind, std::string* out);
/// Single-layout shortcuts with the same bytes as EncodeResponse, for
/// callers that hold no ServeResponse (frame errors, benchmarks).
void EncodeErrorResponse(const Status& status, std::string* out);
void EncodeLevelResponse(const serve::SessionLevel& level, std::string* out);
void EncodeRecommendResponse(
    const std::vector<UpskillRecommendation>& picks, std::string* out);

// --- Response decoding (client side) ---

/// One decoded response frame: the typed response, rendered as text by
/// serve::RenderServeResponse, plus the bytes it took on the wire.
struct DecodedResponse : serve::ServeResponse {
  size_t frame_bytes = 0;
};

/// Decodes one response frame for a request of kind `kind` (the payload
/// layout is kind-specific, and the protocol answers in request order).
DecodeStatus DecodeResponse(const char* data, size_t size,
                            serve::ServeRequest::Kind kind,
                            size_t max_payload_bytes, DecodedResponse* out,
                            std::string* error);

}  // namespace net
}  // namespace upskill

#endif  // UPSKILL_NET_FRAME_H_
