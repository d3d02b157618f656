#include "net/wire.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace rtrec {
namespace {

// --- Big-endian primitive writers -----------------------------------------

void PutU8(std::uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v >> 8));
  out->push_back(static_cast<char>(v));
}

void PutU32(std::uint32_t v, std::string* out) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>(v >> shift));
  }
}

void PutU64(std::uint64_t v, std::string* out) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>(v >> shift));
  }
}

void PutI64(std::int64_t v, std::string* out) {
  PutU64(static_cast<std::uint64_t>(v), out);
}

void PutF64(double v, std::string* out) {
  PutU64(std::bit_cast<std::uint64_t>(v), out);
}

// --- Bounds-checked big-endian reader -------------------------------------

class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : data_(body) {}

  bool ReadU8(std::uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU16(std::uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 2; ++i) {
      *v = static_cast<std::uint16_t>(
          (*v << 8) | static_cast<std::uint8_t>(data_[pos_++]));
    }
    return true;
  }

  bool ReadU32(std::uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v = (*v << 8) | static_cast<std::uint8_t>(data_[pos_++]);
    }
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v = (*v << 8) | static_cast<std::uint8_t>(data_[pos_++]);
    }
    return true;
  }

  bool ReadI64(std::int64_t* v) {
    std::uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<std::int64_t>(u);
    return true;
  }

  bool ReadF64(double* v) {
    std::uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }

  bool ReadBytes(std::size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  /// Decoders reject bodies with unread trailing bytes: a well-formed
  /// peer never sends them, so they signal version skew or corruption.
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(StringPrintf("truncated %s body", what));
}

Status TrailingGarbage(const char* what) {
  return Status::InvalidArgument(
      StringPrintf("trailing bytes after %s body", what));
}

Status WrongType(const char* expected, MessageType got) {
  return Status::InvalidArgument(
      StringPrintf("expected %s, got %s", expected, MessageTypeToString(got)));
}

std::string EncodeEmpty(MessageType type, std::uint64_t request_id) {
  Frame frame;
  frame.type = type;
  frame.request_id = request_id;
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

}  // namespace

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kPingRequest: return "ping_request";
    case MessageType::kRecommendRequest: return "recommend_request";
    case MessageType::kObserveRequest: return "observe_request";
    case MessageType::kRegisterProfileRequest: return "register_profile_request";
    case MessageType::kStatsRequest: return "stats_request";
    case MessageType::kHelloRequest: return "hello_request";
    case MessageType::kPongResponse: return "pong_response";
    case MessageType::kRecommendResponse: return "recommend_response";
    case MessageType::kAckResponse: return "ack_response";
    case MessageType::kErrorResponse: return "error_response";
    case MessageType::kStatsResponse: return "stats_response";
    case MessageType::kHelloResponse: return "hello_response";
  }
  return "unknown";
}

const char* WireErrorToString(WireError error) {
  switch (error) {
    case WireError::kMalformedFrame: return "MALFORMED_FRAME";
    case WireError::kBadVersion: return "BAD_VERSION";
    case WireError::kUnknownType: return "UNKNOWN_TYPE";
    case WireError::kBadRequest: return "BAD_REQUEST";
    case WireError::kOverloaded: return "OVERLOADED";
    case WireError::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

void AppendFrame(const Frame& frame, std::string* out) {
  const std::size_t extension = frame.has_trace ? kTraceExtensionBytes : 0;
  PutU32(static_cast<std::uint32_t>(kFrameHeaderBytes + extension +
                                    frame.body.size()),
         out);
  PutU8(frame.has_trace
            ? static_cast<std::uint8_t>(frame.version | kFrameVersionTraceBit)
            : frame.version,
        out);
  PutU8(static_cast<std::uint8_t>(frame.type), out);
  PutU64(frame.request_id, out);
  if (frame.has_trace) {
    PutU64(frame.trace_id, out);
    PutU8(frame.trace_flags, out);
    PutU8(frame.trace_hop, out);
  }
  out->append(frame.body);
}

void StampTraceExtension(std::string* encoded_frame, std::uint64_t trace_id,
                         std::uint8_t flags, std::uint8_t hop) {
  const std::size_t header = kLengthPrefixBytes + kFrameHeaderBytes;
  if (encoded_frame->size() < header) return;  // Not a complete frame.
  std::string extension;
  extension.reserve(kTraceExtensionBytes);
  PutU64(trace_id, &extension);
  PutU8(flags, &extension);
  PutU8(hop, &extension);
  encoded_frame->insert(header, extension);
  std::uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len =
        (payload_len << 8) | static_cast<std::uint8_t>((*encoded_frame)[i]);
  }
  payload_len += static_cast<std::uint32_t>(kTraceExtensionBytes);
  for (int i = 0; i < 4; ++i) {
    (*encoded_frame)[i] = static_cast<char>(payload_len >> (24 - 8 * i));
  }
  (*encoded_frame)[4] = static_cast<char>(
      static_cast<std::uint8_t>((*encoded_frame)[4]) | kFrameVersionTraceBit);
}

StatusOr<Frame> FrameDecoder::Next() {
  if (buffer_.size() < kLengthPrefixBytes) {
    return Status::NotFound("incomplete length prefix");
  }
  std::uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len = (payload_len << 8) | static_cast<std::uint8_t>(buffer_[i]);
  }
  if (payload_len < kFrameHeaderBytes) {
    return Status::Corruption(StringPrintf(
        "frame payload length %u below the %zu-byte header",
        payload_len, kFrameHeaderBytes));
  }
  if (payload_len > max_frame_bytes_) {
    return Status::Corruption(StringPrintf(
        "frame payload length %u exceeds the %zu-byte cap", payload_len,
        max_frame_bytes_));
  }
  const std::size_t total = kLengthPrefixBytes + payload_len;
  if (buffer_.size() < total) {
    return Status::NotFound("incomplete frame");
  }
  Frame frame;
  frame.version = static_cast<std::uint8_t>(buffer_[4]);
  frame.type = static_cast<MessageType>(static_cast<std::uint8_t>(buffer_[5]));
  frame.request_id = 0;
  for (int i = 6; i < 14; ++i) {
    frame.request_id =
        (frame.request_id << 8) | static_cast<std::uint8_t>(buffer_[i]);
  }
  std::size_t body_offset = kLengthPrefixBytes + kFrameHeaderBytes;
  std::size_t body_len = payload_len - kFrameHeaderBytes;
  if ((frame.version & kFrameVersionTraceBit) != 0) {
    if (body_len < kTraceExtensionBytes) {
      return Status::Corruption(StringPrintf(
          "frame payload length %u too short for the trace extension",
          payload_len));
    }
    frame.version &= static_cast<std::uint8_t>(~kFrameVersionTraceBit);
    frame.has_trace = true;
    frame.trace_id = 0;
    for (std::size_t i = body_offset; i < body_offset + 8; ++i) {
      frame.trace_id =
          (frame.trace_id << 8) | static_cast<std::uint8_t>(buffer_[i]);
    }
    frame.trace_flags = static_cast<std::uint8_t>(buffer_[body_offset + 8]);
    frame.trace_hop = static_cast<std::uint8_t>(buffer_[body_offset + 9]);
    body_offset += kTraceExtensionBytes;
    body_len -= kTraceExtensionBytes;
  }
  frame.body.assign(buffer_, body_offset, body_len);
  buffer_.erase(0, total);
  return frame;
}

// ---------------------------------------------------------------------------
// Requests.

std::string EncodePingRequest(std::uint64_t request_id) {
  return EncodeEmpty(MessageType::kPingRequest, request_id);
}

std::string EncodeStatsRequest(std::uint64_t request_id) {
  return EncodeEmpty(MessageType::kStatsRequest, request_id);
}

std::string EncodeRecommendRequest(std::uint64_t request_id,
                                   const RecRequest& request) {
  Frame frame;
  frame.type = MessageType::kRecommendRequest;
  frame.request_id = request_id;
  PutU64(request.user, &frame.body);
  PutI64(request.now, &frame.body);
  PutU32(static_cast<std::uint32_t>(request.top_n), &frame.body);
  PutU32(static_cast<std::uint32_t>(request.seed_videos.size()), &frame.body);
  for (VideoId seed : request.seed_videos) PutU64(seed, &frame.body);
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<RecRequest> DecodeRecommendRequest(const Frame& frame) {
  if (frame.type != MessageType::kRecommendRequest) {
    return WrongType("recommend_request", frame.type);
  }
  BodyReader reader(frame.body);
  RecRequest request;
  std::uint32_t top_n = 0;
  std::uint32_t num_seeds = 0;
  if (!reader.ReadU64(&request.user) || !reader.ReadI64(&request.now) ||
      !reader.ReadU32(&top_n) || !reader.ReadU32(&num_seeds)) {
    return Truncated("recommend_request");
  }
  if (num_seeds > kMaxListedVideos) {
    return Status::InvalidArgument(
        StringPrintf("recommend_request lists %u seeds (cap %zu)", num_seeds,
                     kMaxListedVideos));
  }
  request.top_n = top_n;
  request.seed_videos.reserve(num_seeds);
  for (std::uint32_t i = 0; i < num_seeds; ++i) {
    VideoId seed = 0;
    if (!reader.ReadU64(&seed)) return Truncated("recommend_request");
    request.seed_videos.push_back(seed);
  }
  if (!reader.AtEnd()) return TrailingGarbage("recommend_request");
  return request;
}

std::string EncodeHelloRequest(std::uint64_t request_id,
                               const HelloRequest& hello) {
  Frame frame;
  frame.type = MessageType::kHelloRequest;
  frame.request_id = request_id;
  PutU8(hello.min_version, &frame.body);
  PutU8(hello.max_version, &frame.body);
  PutU32(hello.features, &frame.body);
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<HelloRequest> DecodeHelloRequest(const Frame& frame) {
  if (frame.type != MessageType::kHelloRequest) {
    return WrongType("hello_request", frame.type);
  }
  BodyReader reader(frame.body);
  HelloRequest hello;
  if (!reader.ReadU8(&hello.min_version) ||
      !reader.ReadU8(&hello.max_version) || !reader.ReadU32(&hello.features)) {
    return Truncated("hello_request");
  }
  if (hello.min_version == 0 || hello.min_version > hello.max_version) {
    return Status::InvalidArgument(StringPrintf(
        "hello_request version range [%u, %u] is empty or zero-based",
        hello.min_version, hello.max_version));
  }
  if (!reader.AtEnd()) return TrailingGarbage("hello_request");
  return hello;
}

std::string EncodeObserveRequest(std::uint64_t request_id,
                                 const UserAction& action) {
  Frame frame;
  frame.type = MessageType::kObserveRequest;
  frame.request_id = request_id;
  PutU64(action.user, &frame.body);
  PutU64(action.video, &frame.body);
  PutU8(static_cast<std::uint8_t>(action.type), &frame.body);
  PutF64(action.view_fraction, &frame.body);
  PutI64(action.time, &frame.body);
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<UserAction> DecodeObserveRequest(const Frame& frame) {
  if (frame.type != MessageType::kObserveRequest) {
    return WrongType("observe_request", frame.type);
  }
  BodyReader reader(frame.body);
  UserAction action;
  std::uint8_t type = 0;
  if (!reader.ReadU64(&action.user) || !reader.ReadU64(&action.video) ||
      !reader.ReadU8(&type) || !reader.ReadF64(&action.view_fraction) ||
      !reader.ReadI64(&action.time)) {
    return Truncated("observe_request");
  }
  if (type >= kNumActionTypes) {
    return Status::InvalidArgument(
        StringPrintf("observe_request action type %u out of range", type));
  }
  action.type = static_cast<ActionType>(type);
  if (!std::isfinite(action.view_fraction) || action.view_fraction < 0.0 ||
      action.view_fraction > 1.0) {
    return Status::InvalidArgument(
        "observe_request view fraction outside [0, 1]");
  }
  if (!reader.AtEnd()) return TrailingGarbage("observe_request");
  return action;
}

std::string EncodeRegisterProfileRequest(std::uint64_t request_id, UserId user,
                                         const UserProfile& profile) {
  Frame frame;
  frame.type = MessageType::kRegisterProfileRequest;
  frame.request_id = request_id;
  PutU64(user, &frame.body);
  PutU8(profile.registered ? 1 : 0, &frame.body);
  PutU8(static_cast<std::uint8_t>(profile.gender), &frame.body);
  PutU8(static_cast<std::uint8_t>(profile.age), &frame.body);
  PutU8(static_cast<std::uint8_t>(profile.education), &frame.body);
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<ProfileUpdate> DecodeRegisterProfileRequest(const Frame& frame) {
  if (frame.type != MessageType::kRegisterProfileRequest) {
    return WrongType("register_profile_request", frame.type);
  }
  BodyReader reader(frame.body);
  ProfileUpdate update;
  std::uint8_t registered = 0, gender = 0, age = 0, education = 0;
  if (!reader.ReadU64(&update.user) || !reader.ReadU8(&registered) ||
      !reader.ReadU8(&gender) || !reader.ReadU8(&age) ||
      !reader.ReadU8(&education)) {
    return Truncated("register_profile_request");
  }
  if (registered > 1 || gender >= kNumGenders || age >= kNumAgeBuckets ||
      education >= kNumEducationLevels) {
    return Status::InvalidArgument(
        "register_profile_request field out of range");
  }
  update.profile.registered = registered != 0;
  update.profile.gender = static_cast<Gender>(gender);
  update.profile.age = static_cast<AgeBucket>(age);
  update.profile.education = static_cast<Education>(education);
  if (!reader.AtEnd()) return TrailingGarbage("register_profile_request");
  return update;
}

// ---------------------------------------------------------------------------
// Responses.

std::string EncodePongResponse(std::uint64_t request_id) {
  return EncodeEmpty(MessageType::kPongResponse, request_id);
}

std::string EncodeAckResponse(std::uint64_t request_id) {
  return EncodeEmpty(MessageType::kAckResponse, request_id);
}

std::string EncodeRecommendResponse(std::uint64_t request_id,
                                    const std::vector<ScoredVideo>& results,
                                    std::uint8_t flags) {
  Frame frame;
  frame.type = MessageType::kRecommendResponse;
  frame.request_id = request_id;
  PutU8(flags, &frame.body);
  PutU32(static_cast<std::uint32_t>(results.size()), &frame.body);
  for (const ScoredVideo& r : results) {
    PutU64(r.video, &frame.body);
    PutF64(r.score, &frame.body);
  }
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<RecommendReply> DecodeRecommendReply(const Frame& frame) {
  if (frame.type != MessageType::kRecommendResponse) {
    return WrongType("recommend_response", frame.type);
  }
  BodyReader reader(frame.body);
  RecommendReply reply;
  std::uint32_t count = 0;
  if (!reader.ReadU8(&reply.flags) || !reader.ReadU32(&count)) {
    return Truncated("recommend_response");
  }
  if (count > kMaxListedVideos) {
    return Status::InvalidArgument(
        StringPrintf("recommend_response lists %u videos (cap %zu)", count,
                     kMaxListedVideos));
  }
  reply.videos.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ScoredVideo r;
    if (!reader.ReadU64(&r.video) || !reader.ReadF64(&r.score)) {
      return Truncated("recommend_response");
    }
    reply.videos.push_back(r);
  }
  if (!reader.AtEnd()) return TrailingGarbage("recommend_response");
  return reply;
}

std::string EncodeHelloResponse(std::uint64_t request_id,
                                const HelloReply& reply) {
  Frame frame;
  frame.type = MessageType::kHelloResponse;
  frame.request_id = request_id;
  PutU8(reply.version, &frame.body);
  PutU32(reply.features, &frame.body);
  PutU32(reply.max_in_flight_hint, &frame.body);
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<HelloReply> DecodeHelloResponse(const Frame& frame) {
  if (frame.type != MessageType::kHelloResponse) {
    return WrongType("hello_response", frame.type);
  }
  BodyReader reader(frame.body);
  HelloReply reply;
  if (!reader.ReadU8(&reply.version) || !reader.ReadU32(&reply.features) ||
      !reader.ReadU32(&reply.max_in_flight_hint)) {
    return Truncated("hello_response");
  }
  if (reply.version != kWireVersionV2) {
    return Status::InvalidArgument(StringPrintf(
        "hello_response selected unsupported version %u", reply.version));
  }
  if (!reader.AtEnd()) return TrailingGarbage("hello_response");
  return reply;
}

std::string EncodeStatsResponse(std::uint64_t request_id,
                                std::string_view text,
                                std::size_t max_text_bytes) {
  if (text.size() > max_text_bytes) {
    // Cut at the last newline that fits: a Prometheus payload must be
    // whole lines, and a registry can outgrow the frame cap.
    const std::size_t cut = text.rfind('\n', max_text_bytes);
    text = cut == std::string_view::npos ? std::string_view()
                                         : text.substr(0, cut + 1);
  }
  Frame frame;
  frame.type = MessageType::kStatsResponse;
  frame.request_id = request_id;
  PutU32(static_cast<std::uint32_t>(text.size()), &frame.body);
  frame.body.append(text);
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<std::string> DecodeStatsResponse(const Frame& frame) {
  if (frame.type != MessageType::kStatsResponse) {
    return WrongType("stats_response", frame.type);
  }
  BodyReader reader(frame.body);
  std::uint32_t len = 0;
  if (!reader.ReadU32(&len)) return Truncated("stats_response");
  std::string text;
  if (!reader.ReadBytes(len, &text)) return Truncated("stats_response");
  if (!reader.AtEnd()) return TrailingGarbage("stats_response");
  return text;
}

std::string EncodeErrorResponse(std::uint64_t request_id, WireError code,
                                std::string_view message) {
  Frame frame;
  frame.type = MessageType::kErrorResponse;
  frame.request_id = request_id;
  const std::size_t len =
      std::min<std::size_t>(message.size(), 0xFFFF);  // u16 length field
  PutU8(static_cast<std::uint8_t>(code), &frame.body);
  PutU16(static_cast<std::uint16_t>(len), &frame.body);
  frame.body.append(message.substr(0, len));
  std::string out;
  AppendFrame(frame, &out);
  return out;
}

StatusOr<WireErrorInfo> DecodeErrorResponse(const Frame& frame) {
  if (frame.type != MessageType::kErrorResponse) {
    return WrongType("error_response", frame.type);
  }
  BodyReader reader(frame.body);
  std::uint8_t code = 0;
  std::uint16_t len = 0;
  if (!reader.ReadU8(&code) || !reader.ReadU16(&len)) {
    return Truncated("error_response");
  }
  if (code < static_cast<std::uint8_t>(WireError::kMalformedFrame) ||
      code > static_cast<std::uint8_t>(WireError::kInternal)) {
    return Status::InvalidArgument(
        StringPrintf("error_response code %u out of range", code));
  }
  WireErrorInfo info;
  info.code = static_cast<WireError>(code);
  if (!reader.ReadBytes(len, &info.message)) return Truncated("error_response");
  if (!reader.AtEnd()) return TrailingGarbage("error_response");
  return info;
}

Status WireErrorToStatus(const WireErrorInfo& error) {
  const std::string msg = StringPrintf("%s: %s", WireErrorToString(error.code),
                                       error.message.c_str());
  switch (error.code) {
    case WireError::kOverloaded:
      return Status::Unavailable(msg);
    case WireError::kMalformedFrame:
    case WireError::kBadVersion:
    case WireError::kUnknownType:
    case WireError::kBadRequest:
      return Status::InvalidArgument(msg);
    case WireError::kInternal:
      return Status::Internal(msg);
  }
  return Status::Internal(msg);
}

}  // namespace rtrec
