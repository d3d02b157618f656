#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>

namespace rtrec {
namespace {

// Feeds `bytes` to a fresh decoder and expects exactly one frame.
Frame DecodeOne(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Append(bytes);
  StatusOr<Frame> frame = decoder.Next();
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(decoder.Next().status().IsNotFound())
      << "one message must decode to exactly one frame";
  return frame.ok() ? *frame : Frame{};
}

// --- Roundtrips, one per message type --------------------------------------

TEST(NetCodecTest, PingPongAckRoundtrip) {
  for (auto [encoded, type] :
       {std::pair{EncodePingRequest(7), MessageType::kPingRequest},
        std::pair{EncodePongResponse(8), MessageType::kPongResponse},
        std::pair{EncodeAckResponse(9), MessageType::kAckResponse}}) {
    Frame frame = DecodeOne(encoded);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.version, kWireVersionV2);
    EXPECT_TRUE(frame.body.empty());
  }
  EXPECT_EQ(DecodeOne(EncodePingRequest(7)).request_id, 7u);
}

TEST(NetCodecTest, RecommendRequestRoundtrip) {
  RecRequest request;
  request.user = 0xDEADBEEFCAFEF00Dull;
  request.seed_videos = {1, 0xFFFFFFFFFFFFFFFFull, 42};
  request.top_n = 25;
  request.now = -123456789;  // Negative timestamps must survive.
  Frame frame = DecodeOne(EncodeRecommendRequest(99, request));
  EXPECT_EQ(frame.request_id, 99u);
  auto decoded = DecodeRecommendRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->user, request.user);
  EXPECT_EQ(decoded->seed_videos, request.seed_videos);
  EXPECT_EQ(decoded->top_n, request.top_n);
  EXPECT_EQ(decoded->now, request.now);
}

TEST(NetCodecTest, RecommendRequestNoSeedsRoundtrip) {
  RecRequest request;
  request.user = 5;
  auto decoded = DecodeRecommendRequest(DecodeOne(EncodeRecommendRequest(1, request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->seed_videos.empty());
}

TEST(NetCodecTest, ObserveRequestRoundtrip) {
  UserAction action;
  action.user = 12;
  action.video = 34;
  action.type = ActionType::kPlayTime;
  action.view_fraction = 0.8125;
  action.time = 1700000000000;
  auto decoded = DecodeObserveRequest(DecodeOne(EncodeObserveRequest(2, action)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, action);
}

TEST(NetCodecTest, RegisterProfileRequestRoundtrip) {
  UserProfile profile;
  profile.registered = true;
  profile.gender = Gender::kFemale;
  profile.age = AgeBucket::k35To49;
  profile.education = Education::kPostgraduate;
  auto decoded = DecodeRegisterProfileRequest(
      DecodeOne(EncodeRegisterProfileRequest(3, 77, profile)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->user, 77u);
  EXPECT_EQ(decoded->profile, profile);
}

TEST(NetCodecTest, RecommendResponseRoundtrip) {
  std::vector<ScoredVideo> results = {
      {.video = 10, .score = 0.5}, {.video = 11, .score = -2.25}};
  auto decoded =
      DecodeRecommendReply(DecodeOne(EncodeRecommendResponse(4, results)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->videos, results);

  auto empty =
      DecodeRecommendReply(DecodeOne(EncodeRecommendResponse(5, {})));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->videos.empty());
}

TEST(NetCodecTest, RecommendResponseDegradedFlagRoundtrip) {
  std::vector<ScoredVideo> results = {{.video = 10, .score = 0.5}};
  auto reply = DecodeRecommendReply(DecodeOne(
      EncodeRecommendResponse(4, results, kRecommendFlagDegraded)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->degraded());
  EXPECT_EQ(reply->flags, kRecommendFlagDegraded);
  EXPECT_EQ(reply->videos, results);

  auto normal =
      DecodeRecommendReply(DecodeOne(EncodeRecommendResponse(5, results)));
  ASSERT_TRUE(normal.ok());
  EXPECT_FALSE(normal->degraded());
  EXPECT_EQ(normal->flags, 0);
  EXPECT_EQ(normal->videos, results);
}

TEST(NetCodecTest, RecommendResponseUnknownFlagBitsTolerated) {
  // A newer server may set flag bits this client does not know; they
  // must decode cleanly (forward compatibility), preserved verbatim.
  std::vector<ScoredVideo> results = {{.video = 3, .score = 1.0}};
  auto reply = DecodeRecommendReply(
      DecodeOne(EncodeRecommendResponse(7, results, 0xFE)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->flags, 0xFE);
  EXPECT_FALSE(reply->degraded());  // Bit 0 is clear.
  EXPECT_EQ(reply->videos, results);
}

TEST(NetCodecTest, RecommendReplyEmptyBodyIsTypedError) {
  Frame frame;
  frame.type = MessageType::kRecommendResponse;
  frame.body = "";  // Not even the flags byte.
  EXPECT_TRUE(DecodeRecommendReply(frame).status().IsInvalidArgument());
}

TEST(NetCodecTest, ErrorResponseRoundtrip) {
  auto decoded = DecodeErrorResponse(DecodeOne(
      EncodeErrorResponse(6, WireError::kOverloaded, "shed: cap reached")));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->code, WireError::kOverloaded);
  EXPECT_EQ(decoded->message, "shed: cap reached");
  EXPECT_TRUE(WireErrorToStatus(*decoded).IsUnavailable());
}

TEST(NetCodecTest, ErrorResponseMessageTruncatesAtU16) {
  const std::string huge(100'000, 'x');
  auto decoded = DecodeErrorResponse(
      DecodeOne(EncodeErrorResponse(1, WireError::kInternal, huge)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->message.size(), 0xFFFFu);
}

// --- Streaming / framing behaviour -----------------------------------------

TEST(NetCodecTest, DecoderReassemblesByteByByte) {
  RecRequest request;
  request.user = 1;
  request.seed_videos = {2, 3};
  const std::string bytes = EncodeRecommendRequest(11, request);
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Append(std::string_view(&bytes[i], 1));
    EXPECT_TRUE(decoder.Next().status().IsNotFound())
        << "frame must not surface before its last byte (i=" << i << ")";
  }
  decoder.Append(std::string_view(&bytes.back(), 1));
  StatusOr<Frame> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(DecodeRecommendRequest(*frame).ok());
}

TEST(NetCodecTest, DecoderDrainsBackToBackFrames) {
  std::string bytes = EncodePingRequest(1);
  bytes += EncodeAckResponse(2);
  bytes += EncodePongResponse(3);
  FrameDecoder decoder;
  decoder.Append(bytes);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    StatusOr<Frame> frame = decoder.Next();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->request_id, id);
  }
  EXPECT_TRUE(decoder.Next().status().IsNotFound());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// --- Malformed input: typed errors, never crashes --------------------------

TEST(NetCodecTest, TruncatedHeaderIsJustIncomplete) {
  FrameDecoder decoder;
  decoder.Append(std::string("\x00\x00", 2));  // Half a length prefix.
  EXPECT_TRUE(decoder.Next().status().IsNotFound());
}

TEST(NetCodecTest, OversizedLengthIsCorruption) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  // Length prefix claims 2 MiB.
  decoder.Append(std::string("\x00\x20\x00\x00", 4));
  EXPECT_EQ(decoder.Next().status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, UndersizedLengthIsCorruption) {
  FrameDecoder decoder;
  // Length prefix claims 3 bytes — below the 10-byte frame header.
  decoder.Append(std::string("\x00\x00\x00\x03", 4));
  EXPECT_EQ(decoder.Next().status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, BadVersionSurvivesFramingForCallerPolicy) {
  // The decoder hands bad-version frames through; transports answer
  // with a typed BAD_VERSION error (see net_server_test).
  std::string bytes = EncodePingRequest(1);
  bytes[4] = 9;  // Version byte.
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.version, 9);
}

TEST(NetCodecTest, GarbagePayloadYieldsTypedErrors) {
  Frame frame;
  frame.type = MessageType::kRecommendRequest;
  frame.body = "garbage";
  EXPECT_TRUE(DecodeRecommendRequest(frame).status().IsInvalidArgument());

  frame.type = MessageType::kObserveRequest;
  EXPECT_TRUE(DecodeObserveRequest(frame).status().IsInvalidArgument());

  frame.type = MessageType::kRegisterProfileRequest;
  EXPECT_TRUE(DecodeRegisterProfileRequest(frame).status().IsInvalidArgument());

  frame.type = MessageType::kRecommendResponse;
  EXPECT_TRUE(DecodeRecommendReply(frame).status().IsInvalidArgument());

  frame.type = MessageType::kErrorResponse;
  EXPECT_TRUE(DecodeErrorResponse(frame).status().IsInvalidArgument());
}

TEST(NetCodecTest, TruncatedBodyIsTypedError) {
  RecRequest request;
  request.user = 1;
  request.seed_videos = {2, 3, 4};
  std::string bytes = EncodeRecommendRequest(1, request);
  // Claim the same header but chop one seed off the body, fixing up the
  // length prefix so the frame still parses structurally.
  std::string shorter(bytes, 0, bytes.size() - 8);
  const std::uint32_t payload =
      static_cast<std::uint32_t>(shorter.size() - kLengthPrefixBytes);
  for (int i = 0; i < 4; ++i) {
    shorter[i] = static_cast<char>(payload >> (24 - 8 * i));
  }
  auto decoded = DecodeRecommendRequest(DecodeOne(shorter));
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(NetCodecTest, TrailingBytesAreTypedError) {
  UserAction action;
  action.user = 1;
  action.video = 2;
  Frame frame = DecodeOne(EncodeObserveRequest(1, action));
  frame.body += '\x00';
  EXPECT_TRUE(DecodeObserveRequest(frame).status().IsInvalidArgument());
}

TEST(NetCodecTest, OutOfRangeEnumsAreTypedError) {
  UserAction action;
  action.user = 1;
  action.video = 2;
  std::string bytes = EncodeObserveRequest(1, action);
  bytes[4 + 10 + 16] = 50;  // Action-type byte: 50 is no ActionType.
  auto decoded = DecodeObserveRequest(DecodeOne(bytes));
  EXPECT_TRUE(decoded.status().IsInvalidArgument());

  UserProfile profile;
  std::string profile_bytes = EncodeRegisterProfileRequest(1, 1, profile);
  profile_bytes[4 + 10 + 9] = 100;  // Gender byte.
  auto profile_decoded =
      DecodeRegisterProfileRequest(DecodeOne(profile_bytes));
  EXPECT_TRUE(profile_decoded.status().IsInvalidArgument());
}

TEST(NetCodecTest, WrongMessageTypeIsTypedError) {
  Frame frame = DecodeOne(EncodePingRequest(1));
  EXPECT_TRUE(DecodeRecommendRequest(frame).status().IsInvalidArgument());
  EXPECT_TRUE(DecodeErrorResponse(frame).status().IsInvalidArgument());
}

TEST(NetCodecTest, SeedCountCapRejectsAbsurdClaims) {
  // A frame whose seed count claims more entries than the body holds
  // (and more than the cap) must fail cleanly instead of allocating.
  Frame frame;
  frame.type = MessageType::kRecommendRequest;
  std::string body;
  for (int i = 0; i < 8; ++i) body += '\x00';  // user
  for (int i = 0; i < 8; ++i) body += '\x00';  // now
  for (int i = 0; i < 4; ++i) body += '\x00';  // top_n
  body += "\xFF\xFF\xFF\xFF";                  // 4 billion seeds
  frame.body = body;
  EXPECT_TRUE(DecodeRecommendRequest(frame).status().IsInvalidArgument());
}

// --- Hello (docs/WIRE_PROTOCOL.md §5) ----------------------------------------
// Conformance checklist items below cite the spec section they verify.

TEST(NetCodecTest, HelloRequestRoundtripIsV2Framed) {
  // §5.1: Hello travels in a version-2 frame like every other message;
  // its body still carries a version range.
  HelloRequest hello;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.features = 0xA5A5A5A5u;
  Frame frame = DecodeOne(EncodeHelloRequest(11, hello));
  EXPECT_EQ(frame.type, MessageType::kHelloRequest);
  EXPECT_EQ(frame.version, kWireVersionV2);
  EXPECT_EQ(frame.request_id, 11u);
  auto decoded = DecodeHelloRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->min_version, 1);
  EXPECT_EQ(decoded->max_version, 3);
  EXPECT_EQ(decoded->features, 0xA5A5A5A5u);
}

TEST(NetCodecTest, HelloRequestRejectsBadVersionRange) {
  // §5.2: min_version 0 and min > max are malformed.
  HelloRequest zero_min;
  zero_min.min_version = 0;
  EXPECT_TRUE(DecodeHelloRequest(DecodeOne(EncodeHelloRequest(1, zero_min)))
                  .status()
                  .IsInvalidArgument());
  HelloRequest inverted;
  inverted.min_version = 3;
  inverted.max_version = 1;
  EXPECT_TRUE(DecodeHelloRequest(DecodeOne(EncodeHelloRequest(1, inverted)))
                  .status()
                  .IsInvalidArgument());
}

TEST(NetCodecTest, HelloResponseRoundtrip) {
  // §5.3: u8 version | u32 features | u32 max_in_flight_hint.
  HelloReply reply;
  reply.version = kWireVersionV2;
  reply.features = kFeatureTracePropagation;
  reply.max_in_flight_hint = 256;
  Frame frame = DecodeOne(EncodeHelloResponse(12, reply));
  EXPECT_EQ(frame.type, MessageType::kHelloResponse);
  EXPECT_EQ(frame.version, kWireVersionV2);
  // Nine body bytes: version 2, features 0x1, hint 256.
  EXPECT_EQ(frame.body,
            std::string("\x02" "\x00\x00\x00\x01" "\x00\x00\x01\x00", 9));
  auto decoded = DecodeHelloResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, kWireVersionV2);
  EXPECT_EQ(decoded->features, kFeatureTracePropagation);
  EXPECT_EQ(decoded->max_in_flight_hint, 256u);
}

TEST(NetCodecTest, HelloResponseRejectsImpossibleVersion) {
  // §5.3: the only version a reply may carry is 2.
  for (std::uint8_t version : {0, 1, 3}) {
    HelloReply reply;
    reply.version = version;
    EXPECT_TRUE(DecodeHelloResponse(DecodeOne(EncodeHelloResponse(1, reply)))
                    .status()
                    .IsInvalidArgument())
        << "version " << int{version};
  }
}

TEST(NetCodecTest, V2FramesRejectTruncationAndTrailingGarbage) {
  HelloRequest hello;
  std::string bytes = EncodeHelloRequest(5, hello);
  Frame truncated = DecodeOne(bytes);
  truncated.body = truncated.body.substr(0, truncated.body.size() - 1);
  EXPECT_TRUE(DecodeHelloRequest(truncated).status().IsInvalidArgument());
  Frame padded = DecodeOne(bytes);
  padded.body += '\x00';
  EXPECT_TRUE(DecodeHelloRequest(padded).status().IsInvalidArgument());

  RecRequest request;
  request.seed_videos = {1, 2};
  Frame recommend_padded = DecodeOne(EncodeRecommendRequest(6, request));
  recommend_padded.body += '\x00';
  EXPECT_TRUE(
      DecodeRecommendRequest(recommend_padded).status().IsInvalidArgument());
}

// --- Trace extension (docs/WIRE_PROTOCOL.md §2.1) --------------------------

TEST(NetCodecTest, StampTraceExtensionRoundtrip) {
  // §2.1: stamping a pre-encoded frame inserts {trace_id, flags, hop}
  // between the request id and the body; the decoder strips it back out
  // and the body decodes exactly as if never stamped.
  RecRequest request;
  request.user = 0xDEADBEEFu;
  request.seed_videos = {1, 2, 3};
  std::string bytes = EncodeRecommendRequest(21, request);
  const std::string unstamped = bytes;
  StampTraceExtension(&bytes, 0x0123456789ABCDEFull, kTraceFlagSampled,
                      /*hop=*/2);
  EXPECT_EQ(bytes.size(), unstamped.size() + kTraceExtensionBytes);

  Frame frame = DecodeOne(bytes);
  EXPECT_TRUE(frame.has_trace);
  EXPECT_EQ(frame.trace_id, 0x0123456789ABCDEFull);
  EXPECT_EQ(frame.trace_flags, kTraceFlagSampled);
  EXPECT_EQ(frame.trace_hop, 2);
  // The version byte is masked back to the plain protocol version.
  EXPECT_EQ(frame.version, DecodeOne(unstamped).version);
  EXPECT_EQ(frame.request_id, 21u);
  auto decoded = DecodeRecommendRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->user, request.user);
  EXPECT_EQ(decoded->seed_videos, request.seed_videos);
}

TEST(NetCodecTest, UnstampedFramesCarryNoTrace) {
  Frame frame = DecodeOne(EncodePingRequest(1));
  EXPECT_FALSE(frame.has_trace);
  EXPECT_EQ(frame.trace_id, 0u);
}

TEST(NetCodecTest, AppendFrameEmitsTraceExtension) {
  Frame frame;
  frame.type = MessageType::kPingRequest;
  frame.request_id = 9;
  frame.has_trace = true;
  frame.trace_id = 0xFFull;
  frame.trace_flags = kTraceFlagSampled;
  frame.trace_hop = 1;
  std::string bytes;
  AppendFrame(frame, &bytes);
  // On the wire the version byte carries the trace bit...
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]),
            kWireVersionV2 | kFrameVersionTraceBit);
  // ...and the decoder strips it back out.
  Frame decoded = DecodeOne(bytes);
  EXPECT_EQ(decoded.version, kWireVersionV2);
  EXPECT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace_id, 0xFFull);
  EXPECT_EQ(decoded.trace_hop, 1);
}

TEST(NetCodecTest, TraceBitWithTruncatedExtensionIsCorruption) {
  // §2.1: a frame announcing the extension must have at least 10 body
  // bytes to hold it; anything shorter is framing corruption.
  std::string bytes = EncodePingRequest(1);  // Zero-length body.
  bytes[4] = static_cast<char>(bytes[4] | kFrameVersionTraceBit);
  FrameDecoder decoder;
  decoder.Append(bytes);
  EXPECT_EQ(decoder.Next().status().code(), StatusCode::kCorruption);
}

TEST(NetCodecTest, StampedStreamStaysInFraming) {
  // Back-to-back frames where only the middle one is stamped: the
  // length-prefix patch must keep the stream parseable.
  std::string middle = EncodeAckResponse(2);
  StampTraceExtension(&middle, 0xABCDull, kTraceFlagSampled, 0);
  std::string bytes = EncodePingRequest(1);
  bytes += middle;
  bytes += EncodePongResponse(3);
  FrameDecoder decoder;
  decoder.Append(bytes);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    StatusOr<Frame> frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->request_id, id);
    EXPECT_EQ(frame->has_trace, id == 2);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

}  // namespace
}  // namespace rtrec
