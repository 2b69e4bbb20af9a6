// Binary frame codec: request/response round trips for every opcode,
// incremental decoding (kNeedMore on every strict prefix), and malformed
// streams (bad magic, oversized length, bad opcode, payload mismatch).

#include "net/frame.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace upskill {
namespace net {
namespace {

using Kind = serve::ServeRequest::Kind;

serve::ServeRequest MakeObserve() {
  serve::ServeRequest request;
  request.kind = Kind::kObserve;
  request.user = "alice";
  request.item = 42;
  request.has_time = true;
  request.time = -1234567890123LL;
  return request;
}

TEST(FrameTest, ObserveRequestRoundTrip) {
  std::string wire;
  EncodeRequest(MakeObserve(), &wire);
  ASSERT_GE(wire.size(), kFrameHeaderBytes);
  EXPECT_EQ(static_cast<uint8_t>(wire[0]), kRequestMagic);

  DecodedRequest decoded;
  std::string error;
  ASSERT_EQ(DecodeRequest(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                          &decoded, &error),
            DecodeStatus::kFrame)
      << error;
  EXPECT_EQ(decoded.frame_bytes, wire.size());
  EXPECT_EQ(decoded.request.kind, Kind::kObserve);
  EXPECT_EQ(decoded.request.user, "alice");
  EXPECT_EQ(decoded.request.item, 42);
  EXPECT_TRUE(decoded.request.has_time);
  EXPECT_EQ(decoded.request.time, -1234567890123LL);
}

TEST(FrameTest, EveryRequestKindRoundTrips) {
  std::vector<serve::ServeRequest> requests;
  requests.push_back(MakeObserve());
  {
    serve::ServeRequest r;
    r.kind = Kind::kLevel;
    r.user = "bob";
    requests.push_back(r);
  }
  {
    serve::ServeRequest r;
    r.kind = Kind::kRecommend;
    r.user = "carol";
    r.top_k = 7;
    r.stretch = 1.25;
    requests.push_back(r);
  }
  {
    serve::ServeRequest r;
    r.kind = Kind::kDifficulty;
    r.item = 99;
    requests.push_back(r);
  }
  {
    serve::ServeRequest r;
    r.kind = Kind::kSwap;
    r.path = "/tmp/some model.snap";
    requests.push_back(r);
  }
  {
    serve::ServeRequest r;
    r.kind = Kind::kEvict;
    r.time = 777;
    requests.push_back(r);
  }
  for (const Kind kind : {Kind::kStats, Kind::kReset, Kind::kQuit}) {
    serve::ServeRequest r;
    r.kind = kind;
    requests.push_back(r);
  }

  // Concatenate all frames into one stream and decode them back in order,
  // the way a pipelining server sees them.
  std::string wire;
  for (const auto& request : requests) EncodeRequest(request, &wire);
  size_t offset = 0;
  for (const auto& expected : requests) {
    DecodedRequest decoded;
    std::string error;
    ASSERT_EQ(DecodeRequest(wire.data() + offset, wire.size() - offset,
                            kDefaultMaxPayloadBytes, &decoded, &error),
              DecodeStatus::kFrame)
        << error;
    offset += decoded.frame_bytes;
    EXPECT_EQ(decoded.request.kind, expected.kind);
    EXPECT_EQ(decoded.request.user, expected.user);
    EXPECT_EQ(decoded.request.item, expected.item);
    EXPECT_EQ(decoded.request.path, expected.path);
    EXPECT_EQ(decoded.request.top_k, expected.top_k);
    EXPECT_DOUBLE_EQ(decoded.request.stretch, expected.stretch);
  }
  EXPECT_EQ(offset, wire.size());
}

TEST(FrameTest, EveryPrefixNeedsMore) {
  std::string wire;
  EncodeRequest(MakeObserve(), &wire);
  for (size_t n = 0; n < wire.size(); ++n) {
    DecodedRequest decoded;
    std::string error;
    EXPECT_EQ(DecodeRequest(wire.data(), n, kDefaultMaxPayloadBytes,
                            &decoded, &error),
              DecodeStatus::kNeedMore)
        << "prefix " << n;
  }
}

TEST(FrameTest, BadMagicIsError) {
  std::string wire = "observe alice 1 2\n";  // text bytes are not a frame
  DecodedRequest decoded;
  std::string error;
  EXPECT_EQ(DecodeRequest(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                          &decoded, &error),
            DecodeStatus::kError);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(FrameTest, OversizedPayloadIsErrorNotNeedMore) {
  std::string wire;
  EncodeRequest(MakeObserve(), &wire);
  // Rewrite the length field to announce more than the limit: must be
  // rejected immediately, even though the bytes never arrive.
  const uint32_t huge = 1u << 30;
  wire[2] = static_cast<char>(huge & 0xFF);
  wire[3] = static_cast<char>((huge >> 8) & 0xFF);
  wire[4] = static_cast<char>((huge >> 16) & 0xFF);
  wire[5] = static_cast<char>((huge >> 24) & 0xFF);
  DecodedRequest decoded;
  std::string error;
  EXPECT_EQ(DecodeRequest(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                          &decoded, &error),
            DecodeStatus::kError);
}

TEST(FrameTest, BadOpcodeIsError) {
  std::string wire;
  EncodeRequest(MakeObserve(), &wire);
  wire[1] = static_cast<char>(200);  // not a ServeRequest::Kind
  DecodedRequest decoded;
  std::string error;
  EXPECT_EQ(DecodeRequest(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                          &decoded, &error),
            DecodeStatus::kError);
}

TEST(FrameTest, TrailingPayloadBytesAreError) {
  serve::ServeRequest request;
  request.kind = Kind::kDifficulty;
  request.item = 3;
  std::string wire;
  EncodeRequest(request, &wire);
  // Grow the payload by one byte and patch the length to match: the
  // difficulty payload is fixed-size, so the extra byte is a protocol
  // error, not padding.
  wire.push_back('\0');
  const uint32_t payload = static_cast<uint32_t>(wire.size()) -
                           static_cast<uint32_t>(kFrameHeaderBytes);
  wire[2] = static_cast<char>(payload & 0xFF);
  wire[3] = static_cast<char>((payload >> 8) & 0xFF);
  wire[4] = static_cast<char>((payload >> 16) & 0xFF);
  wire[5] = static_cast<char>((payload >> 24) & 0xFF);
  DecodedRequest decoded;
  std::string error;
  EXPECT_EQ(DecodeRequest(wire.data(), wire.size(), kDefaultMaxPayloadBytes,
                          &decoded, &error),
            DecodeStatus::kError);
}

TEST(FrameTest, LevelResponseRoundTrip) {
  serve::SessionLevel level;
  level.level = 3;
  level.actions = 12345678901234ULL;
  std::string wire;
  EncodeLevelResponse(level, &wire);
  EXPECT_EQ(static_cast<uint8_t>(wire[0]), kResponseMagic);

  DecodedResponse decoded;
  std::string error;
  ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kObserve,
                           kDefaultMaxPayloadBytes, &decoded, &error),
            DecodeStatus::kFrame)
      << error;
  EXPECT_EQ(decoded.status_code, StatusCode::kOk);
  EXPECT_EQ(decoded.level, 3);
  EXPECT_EQ(decoded.actions, 12345678901234ULL);
  EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kObserve),
            "ok level=3 actions=12345678901234");
}

TEST(FrameTest, RecommendResponseRoundTrip) {
  std::vector<UpskillRecommendation> picks(2);
  picks[0].item = 7;
  picks[0].difficulty = 1.5;
  picks[0].log_prob = -2.25;
  picks[1].item = 9;
  picks[1].difficulty = 2.5;
  picks[1].log_prob = -3.5;
  std::string wire;
  EncodeRecommendResponse(picks, &wire);

  DecodedResponse decoded;
  std::string error;
  ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kRecommend,
                           kDefaultMaxPayloadBytes, &decoded, &error),
            DecodeStatus::kFrame)
      << error;
  ASSERT_EQ(decoded.picks.size(), 2u);
  EXPECT_EQ(decoded.picks[0].item, 7);
  EXPECT_DOUBLE_EQ(decoded.picks[0].difficulty, 1.5);
  EXPECT_DOUBLE_EQ(decoded.picks[1].log_prob, -3.5);
  EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kRecommend),
            "ok n=2 7:1.5:-2.25 9:2.5:-3.5");
}

TEST(FrameTest, RecommendResponseHugeCountRejectedBeforeAllocating) {
  // A malicious/corrupt peer announcing n=0xFFFFFFFF with no entry bytes
  // behind it must decode as malformed, not allocate ~100 GB of picks.
  std::string wire;
  wire.push_back(static_cast<char>(kResponseMagic));
  wire.push_back('\0');  // StatusCode::kOk
  const uint32_t payload_len = sizeof(uint32_t);
  wire.append(reinterpret_cast<const char*>(&payload_len),
              sizeof(payload_len));
  const uint32_t n = 0xFFFFFFFFu;
  wire.append(reinterpret_cast<const char*>(&n), sizeof(n));

  DecodedResponse decoded;
  std::string error;
  EXPECT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kRecommend,
                           kDefaultMaxPayloadBytes, &decoded, &error),
            DecodeStatus::kError);
  EXPECT_EQ(error, "truncated recommend response");
}

TEST(FrameTest, ErrorResponseRoundTrip) {
  std::string wire;
  EncodeErrorResponse(Status::Unavailable("shed deadline=0.001000s"), &wire);
  DecodedResponse decoded;
  std::string error;
  ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kObserve,
                           kDefaultMaxPayloadBytes, &decoded, &error),
            DecodeStatus::kFrame)
      << error;
  EXPECT_EQ(decoded.status_code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message, "shed deadline=0.001000s");
  EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kObserve),
            "ERR Unavailable shed deadline=0.001000s");
}

TEST(FrameTest, StatsAndAdminResponsesRoundTrip) {
  {
    serve::ServeResponse stats;
    stats.text = "ok sessions=1\nline2";
    std::string wire;
    EncodeResponse(stats, Kind::kStats, &wire);
    DecodedResponse decoded;
    std::string error;
    ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kStats,
                             kDefaultMaxPayloadBytes, &decoded, &error),
              DecodeStatus::kFrame);
    EXPECT_EQ(decoded.text, "ok sessions=1\nline2");
    EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kStats),
              "ok sessions=1\nline2");
  }
  {
    serve::ServeResponse swap;
    swap.levels = 4;
    swap.items = 1000;
    std::string wire;
    EncodeResponse(swap, Kind::kSwap, &wire);
    DecodedResponse decoded;
    std::string error;
    ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kSwap,
                             kDefaultMaxPayloadBytes, &decoded, &error),
              DecodeStatus::kFrame);
    EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kSwap),
              "ok swapped levels=4 items=1000");
  }
  {
    serve::ServeResponse evict;
    evict.evicted = 5;
    evict.sessions = 12;
    std::string wire;
    EncodeResponse(evict, Kind::kEvict, &wire);
    DecodedResponse decoded;
    std::string error;
    ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kEvict,
                             kDefaultMaxPayloadBytes, &decoded, &error),
              DecodeStatus::kFrame);
    EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kEvict),
              "ok evicted=5 sessions=12");
  }
  {
    std::string wire;
    EncodeResponse(serve::ServeResponse{}, Kind::kReset, &wire);
    EXPECT_EQ(wire.size(), kFrameHeaderBytes);  // empty payload
    DecodedResponse decoded;
    std::string error;
    ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), Kind::kReset,
                             kDefaultMaxPayloadBytes, &decoded, &error),
              DecodeStatus::kFrame);
    EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kReset), "ok reset");
    EXPECT_EQ(serve::RenderServeResponse(decoded, Kind::kQuit), "ok bye");
  }
}

void ExpectSameResponse(const serve::ServeResponse& actual,
                        const serve::ServeResponse& expected) {
  EXPECT_EQ(actual.status_code, expected.status_code);
  EXPECT_EQ(actual.message, expected.message);
  EXPECT_EQ(actual.level, expected.level);
  EXPECT_EQ(actual.actions, expected.actions);
  ASSERT_EQ(actual.picks.size(), expected.picks.size());
  for (size_t i = 0; i < expected.picks.size(); ++i) {
    EXPECT_EQ(actual.picks[i].item, expected.picks[i].item);
    EXPECT_EQ(actual.picks[i].difficulty, expected.picks[i].difficulty);
    EXPECT_EQ(actual.picks[i].log_prob, expected.picks[i].log_prob);
  }
  EXPECT_EQ(actual.difficulty, expected.difficulty);
  EXPECT_EQ(actual.levels, expected.levels);
  EXPECT_EQ(actual.items, expected.items);
  EXPECT_EQ(actual.evicted, expected.evicted);
  EXPECT_EQ(actual.sessions, expected.sessions);
  EXPECT_EQ(actual.text, expected.text);
}

/// Encodes `response` for `kind`, decodes it back and checks that the
/// whole frame was consumed and the response survived unchanged.
void ExpectRoundTrip(const serve::ServeResponse& response, Kind kind) {
  std::string wire;
  EncodeResponse(response, kind, &wire);
  DecodedResponse decoded;
  std::string error;
  ASSERT_EQ(DecodeResponse(wire.data(), wire.size(), kind,
                           kDefaultMaxPayloadBytes, &decoded, &error),
            DecodeStatus::kFrame)
      << serve::ServeRequestKindName(kind) << ": " << error;
  EXPECT_EQ(decoded.frame_bytes, wire.size());
  ExpectSameResponse(decoded, response);
}

TEST(FrameTest, EncodeResponseRoundTripsEveryKind) {
  serve::ServeResponse level;
  level.level = 3;
  level.actions = 77;
  ExpectRoundTrip(level, Kind::kObserve);
  ExpectRoundTrip(level, Kind::kLevel);

  serve::ServeResponse recommend;
  recommend.picks.resize(3);
  for (int i = 0; i < 3; ++i) {
    recommend.picks[static_cast<size_t>(i)].item = 10 * i + 1;
    recommend.picks[static_cast<size_t>(i)].difficulty = 1.25 + i;
    recommend.picks[static_cast<size_t>(i)].log_prob = -0.1 - i;
  }
  ExpectRoundTrip(recommend, Kind::kRecommend);
  ExpectRoundTrip(serve::ServeResponse{}, Kind::kRecommend);  // n=0

  serve::ServeResponse difficulty;
  difficulty.difficulty = 2.718281828459045;
  ExpectRoundTrip(difficulty, Kind::kDifficulty);

  serve::ServeResponse swap;
  swap.levels = 5;
  swap.items = 50000;
  ExpectRoundTrip(swap, Kind::kSwap);

  serve::ServeResponse stats;
  stats.text = "ok sessions=2 shards=64\n# EOF";
  ExpectRoundTrip(stats, Kind::kStats);

  serve::ServeResponse evict;
  evict.evicted = 1ULL << 40;
  evict.sessions = 3;
  ExpectRoundTrip(evict, Kind::kEvict);

  ExpectRoundTrip(serve::ServeResponse{}, Kind::kReset);
  ExpectRoundTrip(serve::ServeResponse{}, Kind::kQuit);
}

TEST(FrameTest, EncodeResponseRoundTripsAnErrorOfEveryStatusCode) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kCorruption, StatusCode::kInternal,
        StatusCode::kUnavailable}) {
    serve::ServeResponse error;
    error.status_code = code;
    error.message = std::string("message for ") + StatusCodeToString(code);
    for (int kind = 0; kind < serve::kNumServeRequestKinds; ++kind) {
      ExpectRoundTrip(error, static_cast<Kind>(kind));
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace upskill
