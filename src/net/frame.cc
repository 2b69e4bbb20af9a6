#include "net/frame.h"

#include <cstring>
#include <string_view>

namespace upskill {
namespace net {

namespace {

// Fixed-width put/get via memcpy. Like the snapshot format, the wire
// encoding is the host byte order of the supported targets (x86-64 and
// aarch64 are both little-endian); doubles travel as raw IEEE-754 bits.
template <typename T>
void Put(T value, std::string* out) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

template <typename T>
T Get(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

void PutString(const std::string& s, std::string* out) {
  Put<uint16_t>(static_cast<uint16_t>(s.size()), out);
  out->append(s);
}

/// Reads a u16-length-prefixed string; false when the payload is too
/// short (malformed frame).
bool GetString(const char* data, size_t size, size_t* offset,
               std::string* out) {
  if (*offset + sizeof(uint16_t) > size) return false;
  const uint16_t len = Get<uint16_t>(data + *offset);
  *offset += sizeof(uint16_t);
  if (*offset + len > size) return false;
  out->assign(data + *offset, len);
  *offset += len;
  return true;
}

template <typename T>
bool GetValue(const char* data, size_t size, size_t* offset, T* out) {
  if (*offset + sizeof(T) > size) return false;
  *out = Get<T>(data + *offset);
  *offset += sizeof(T);
  return true;
}

// `inline`: without the hint GCC stops inlining it into EncodeRequest.
inline void AppendHeader(uint8_t magic, uint8_t code, uint32_t payload_len,
                         std::string* out) {
  out->push_back(static_cast<char>(magic));
  out->push_back(static_cast<char>(code));
  Put<uint32_t>(payload_len, out);
}

/// Patches the payload length into a header written with a placeholder,
/// once the payload has been appended after it.
void PatchPayloadLength(std::string* out, size_t header_start) {
  const uint32_t payload_len = static_cast<uint32_t>(
      out->size() - header_start - kFrameHeaderBytes);
  std::memcpy(out->data() + header_start + 2, &payload_len,
              sizeof(payload_len));
}

/// The error frame: the status code in the header, the message as the
/// payload.
void AppendErrorFrame(StatusCode code, std::string_view message,
                      std::string* out) {
  AppendHeader(kResponseMagic, static_cast<uint8_t>(code),
               static_cast<uint32_t>(message.size()), out);
  out->append(message);
}

void PutLevel(int32_t level, uint64_t actions, std::string* out) {
  Put<int32_t>(level, out);
  Put<uint64_t>(actions, out);
}

void PutPicks(const std::vector<UpskillRecommendation>& picks,
              std::string* out) {
  Put<uint32_t>(static_cast<uint32_t>(picks.size()), out);
  for (const UpskillRecommendation& pick : picks) {
    Put<ItemId>(pick.item, out);
    Put<double>(pick.difficulty, out);
    Put<double>(pick.log_prob, out);
  }
}

DecodeStatus Malformed(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return DecodeStatus::kError;
}

/// Shared header validation: magic + length sanity, then payload
/// availability. Sets `payload`/`payload_len` on kFrame.
DecodeStatus DecodeHeader(const char* data, size_t size,
                          uint8_t expected_magic, size_t max_payload_bytes,
                          const char** payload, size_t* payload_len,
                          std::string* error) {
  if (size == 0) return DecodeStatus::kNeedMore;
  if (static_cast<uint8_t>(data[0]) != expected_magic) {
    return Malformed(error, "bad frame magic");
  }
  if (size < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  const uint32_t len = Get<uint32_t>(data + 2);
  if (len > max_payload_bytes) {
    return Malformed(error, "frame payload exceeds limit");
  }
  if (size < kFrameHeaderBytes + len) return DecodeStatus::kNeedMore;
  *payload = data + kFrameHeaderBytes;
  *payload_len = len;
  return DecodeStatus::kFrame;
}

}  // namespace

DecodeStatus DecodeRequest(const char* data, size_t size,
                           size_t max_payload_bytes, DecodedRequest* out,
                           std::string* error) {
  const char* payload = nullptr;
  size_t payload_len = 0;
  const DecodeStatus header = DecodeHeader(
      data, size, kRequestMagic, max_payload_bytes, &payload, &payload_len,
      error);
  if (header != DecodeStatus::kFrame) return header;
  const uint8_t opcode = static_cast<uint8_t>(data[1]);
  if (opcode >= static_cast<uint8_t>(serve::kNumServeRequestKinds)) {
    return Malformed(error, "unknown opcode");
  }
  serve::ServeRequest& request = out->request;
  request = serve::ServeRequest{};
  request.kind = static_cast<serve::ServeRequest::Kind>(opcode);
  size_t offset = 0;
  using Kind = serve::ServeRequest::Kind;
  switch (request.kind) {
    case Kind::kObserve: {
      uint8_t has_time = 0;
      if (!GetString(payload, payload_len, &offset, &request.user) ||
          !GetValue(payload, payload_len, &offset, &request.item) ||
          !GetValue(payload, payload_len, &offset, &has_time) ||
          !GetValue(payload, payload_len, &offset, &request.time)) {
        return Malformed(error, "truncated observe payload");
      }
      request.has_time = has_time != 0;
      break;
    }
    case Kind::kLevel:
      if (!GetString(payload, payload_len, &offset, &request.user)) {
        return Malformed(error, "truncated level payload");
      }
      break;
    case Kind::kRecommend:
      if (!GetString(payload, payload_len, &offset, &request.user) ||
          !GetValue(payload, payload_len, &offset, &request.top_k) ||
          !GetValue(payload, payload_len, &offset, &request.stretch)) {
        return Malformed(error, "truncated recommend payload");
      }
      break;
    case Kind::kDifficulty:
      if (!GetValue(payload, payload_len, &offset, &request.item)) {
        return Malformed(error, "truncated difficulty payload");
      }
      break;
    case Kind::kSwap:
      if (!GetString(payload, payload_len, &offset, &request.path)) {
        return Malformed(error, "truncated swap payload");
      }
      break;
    case Kind::kEvict:
      if (!GetValue(payload, payload_len, &offset, &request.time)) {
        return Malformed(error, "truncated evict payload");
      }
      request.has_time = true;
      break;
    case Kind::kStats:
    case Kind::kReset:
    case Kind::kQuit:
      break;
  }
  if (offset != payload_len) {
    return Malformed(error, "trailing bytes in request payload");
  }
  out->frame_bytes = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kFrame;
}

void EncodeRequest(const serve::ServeRequest& request, std::string* out) {
  const size_t header_start = out->size();
  AppendHeader(kRequestMagic, static_cast<uint8_t>(request.kind), 0, out);
  using Kind = serve::ServeRequest::Kind;
  switch (request.kind) {
    case Kind::kObserve:
      PutString(request.user, out);
      Put<ItemId>(request.item, out);
      Put<uint8_t>(request.has_time ? 1 : 0, out);
      Put<int64_t>(request.time, out);
      break;
    case Kind::kLevel:
      PutString(request.user, out);
      break;
    case Kind::kRecommend:
      PutString(request.user, out);
      Put<int32_t>(request.top_k, out);
      Put<double>(request.stretch, out);
      break;
    case Kind::kDifficulty:
      Put<ItemId>(request.item, out);
      break;
    case Kind::kSwap:
      PutString(request.path, out);
      break;
    case Kind::kEvict:
      Put<int64_t>(request.time, out);
      break;
    case Kind::kStats:
    case Kind::kReset:
    case Kind::kQuit:
      break;
  }
  PatchPayloadLength(out, header_start);
}

void EncodeResponse(const serve::ServeResponse& response,
                    serve::ServeRequest::Kind kind, std::string* out) {
  if (!response.ok()) {
    AppendErrorFrame(response.status_code, response.message, out);
    return;
  }
  const size_t header_start = out->size();
  AppendHeader(kResponseMagic, 0, 0, out);
  using Kind = serve::ServeRequest::Kind;
  switch (kind) {
    case Kind::kObserve:
    case Kind::kLevel:
      PutLevel(response.level, response.actions, out);
      break;
    case Kind::kRecommend:
      PutPicks(response.picks, out);
      break;
    case Kind::kDifficulty:
      Put<double>(response.difficulty, out);
      break;
    case Kind::kSwap:
      Put<int32_t>(response.levels, out);
      Put<int32_t>(response.items, out);
      break;
    case Kind::kEvict:
      Put<uint64_t>(response.evicted, out);
      Put<uint64_t>(response.sessions, out);
      break;
    case Kind::kStats:
      out->append(response.text);
      break;
    case Kind::kReset:
    case Kind::kQuit:
      break;
  }
  PatchPayloadLength(out, header_start);
}

void EncodeErrorResponse(const Status& status, std::string* out) {
  AppendErrorFrame(status.code(), status.message(), out);
}

void EncodeLevelResponse(const serve::SessionLevel& level, std::string* out) {
  AppendHeader(kResponseMagic, 0,
               static_cast<uint32_t>(sizeof(int32_t) + sizeof(uint64_t)),
               out);
  PutLevel(level.level, level.actions, out);
}

void EncodeRecommendResponse(
    const std::vector<UpskillRecommendation>& picks, std::string* out) {
  const size_t header_start = out->size();
  AppendHeader(kResponseMagic, 0, 0, out);
  PutPicks(picks, out);
  PatchPayloadLength(out, header_start);
}

DecodeStatus DecodeResponse(const char* data, size_t size,
                            serve::ServeRequest::Kind kind,
                            size_t max_payload_bytes, DecodedResponse* out,
                            std::string* error) {
  const char* payload = nullptr;
  size_t payload_len = 0;
  const DecodeStatus header = DecodeHeader(
      data, size, kResponseMagic, max_payload_bytes, &payload, &payload_len,
      error);
  if (header != DecodeStatus::kFrame) return header;
  *out = DecodedResponse{};
  out->status_code = static_cast<StatusCode>(static_cast<uint8_t>(data[1]));
  out->frame_bytes = kFrameHeaderBytes + payload_len;
  if (out->status_code != StatusCode::kOk) {
    out->message.assign(payload, payload_len);
    return DecodeStatus::kFrame;
  }
  size_t offset = 0;
  using Kind = serve::ServeRequest::Kind;
  switch (kind) {
    case Kind::kObserve:
    case Kind::kLevel: {
      int32_t level = 0;
      if (!GetValue(payload, payload_len, &offset, &level) ||
          !GetValue(payload, payload_len, &offset, &out->actions)) {
        return Malformed(error, "truncated level response");
      }
      out->level = level;
      break;
    }
    case Kind::kRecommend: {
      uint32_t n = 0;
      if (!GetValue(payload, payload_len, &offset, &n)) {
        return Malformed(error, "truncated recommend response");
      }
      // Validate the announced count against the bytes actually present
      // before allocating: a corrupt/malicious peer must not get to size
      // the allocation (n=0xFFFFFFFF would be ~100 GB).
      constexpr size_t kPickBytes = sizeof(ItemId) + 2 * sizeof(double);
      if (n > (payload_len - offset) / kPickBytes) {
        return Malformed(error, "truncated recommend response");
      }
      out->picks.resize(n);
      for (UpskillRecommendation& pick : out->picks) {
        if (!GetValue(payload, payload_len, &offset, &pick.item) ||
            !GetValue(payload, payload_len, &offset, &pick.difficulty) ||
            !GetValue(payload, payload_len, &offset, &pick.log_prob)) {
          return Malformed(error, "truncated recommend response");
        }
      }
      break;
    }
    case Kind::kDifficulty:
      if (!GetValue(payload, payload_len, &offset, &out->difficulty)) {
        return Malformed(error, "truncated difficulty response");
      }
      break;
    case Kind::kSwap: {
      int32_t levels = 0;
      int32_t items = 0;
      if (!GetValue(payload, payload_len, &offset, &levels) ||
          !GetValue(payload, payload_len, &offset, &items)) {
        return Malformed(error, "truncated swap response");
      }
      out->levels = levels;
      out->items = items;
      break;
    }
    case Kind::kEvict:
      if (!GetValue(payload, payload_len, &offset, &out->evicted) ||
          !GetValue(payload, payload_len, &offset, &out->sessions)) {
        return Malformed(error, "truncated evict response");
      }
      break;
    case Kind::kStats:
      out->text.assign(payload, payload_len);
      offset = payload_len;
      break;
    case Kind::kReset:
    case Kind::kQuit:
      break;
  }
  if (offset != payload_len) {
    return Malformed(error, "trailing bytes in response payload");
  }
  return DecodeStatus::kFrame;
}

}  // namespace net
}  // namespace upskill
