#ifndef RTREC_NET_WIRE_H_
#define RTREC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/action.h"
#include "core/recommender.h"
#include "demographic/profile.h"

namespace rtrec {

/// The rtrec binary wire protocol, version 2. The normative spec lives in
/// docs/WIRE_PROTOCOL.md; this header is its implementation.
///
/// Every message travels in one length-prefixed frame:
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  payload length N, big-endian (bytes after this field)
///        4     1  protocol version (always 2)
///        5     1  message type (MessageType)
///        6     8  request id, big-endian (echoed back in the response)
///       14   N-10 message body (layout depends on the type)
///
/// All multi-byte integers are big-endian; doubles are the IEEE-754 bit
/// pattern as a big-endian u64. The payload length covers version, type,
/// request id, and body, so the minimum legal value is
/// kFrameHeaderBytes (10) and the maximum is enforced by the receiver
/// (kDefaultMaxFrameBytes, 1 MiB, on both server and client). A peer
/// that sends a length outside those bounds is structurally corrupt and
/// gets disconnected after a typed ErrorResponse.
///
/// A frame whose version byte is not 2 gets BAD_VERSION and the
/// connection closes. Every connection speaks the same semantics from
/// its first byte:
///
///  - features: an optional Hello negotiates feature bits (today only
///    trace propagation) and returns the server's in-flight hint
///    (WIRE_PROTOCOL.md §5);
///  - pipelining: any number of requests may be in flight; responses
///    correlate by request id and MAY arrive in any order (§6).

/// The protocol version every frame carries.
inline constexpr std::uint8_t kWireVersionV2 = 2;

/// Bytes of payload occupied by version + type + request id.
inline constexpr std::size_t kFrameHeaderBytes = 10;

/// Bytes of the leading length prefix.
inline constexpr std::size_t kLengthPrefixBytes = 4;

// --- Trace propagation (docs/WIRE_PROTOCOL.md §2.1, §5.4) ------------------

/// Hello feature bit: the peer understands the per-frame trace
/// extension. A connection carries trace contexts only when the client
/// offered this bit and the server echoed it back.
inline constexpr std::uint32_t kFeatureTracePropagation = 0x1;

/// Bit set on the frame's version byte when a trace extension sits
/// between the request id and the body. Stripped (and the version
/// masked back) by FrameDecoder, so dispatchers and codecs never see it.
inline constexpr std::uint8_t kFrameVersionTraceBit = 0x80;

/// Bytes of the trace extension: u64 trace id, u8 flags, u8 hop.
inline constexpr std::size_t kTraceExtensionBytes = 10;

/// Trace-extension flag: the originator sampled this trace; the server
/// adopts the context instead of minting its own root.
inline constexpr std::uint8_t kTraceFlagSampled = 0x01;

/// Default cap on the payload length a receiver will accept.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;  // 1 MiB

/// Cap on seed videos per RecommendRequest and results per
/// RecommendResponse; a peer exceeding it is sending garbage.
inline constexpr std::size_t kMaxListedVideos = 4096;

/// Message discriminator. Requests have the high bit clear, responses set.
enum class MessageType : std::uint8_t {
  kPingRequest = 0x01,
  kRecommendRequest = 0x02,
  kObserveRequest = 0x03,
  kRegisterProfileRequest = 0x04,
  kStatsRequest = 0x05,
  kHelloRequest = 0x06,           ///< Optional feature negotiation.

  kPongResponse = 0x81,
  kRecommendResponse = 0x82,
  kAckResponse = 0x83,
  kErrorResponse = 0x84,
  kStatsResponse = 0x85,
  kHelloResponse = 0x86,
};

/// Stable name for logs ("recommend_request", ...); "unknown" if invalid.
const char* MessageTypeToString(MessageType type);

/// Typed error codes carried by ErrorResponse.
enum class WireError : std::uint8_t {
  kMalformedFrame = 1,  ///< Structurally bad frame or undecodable body.
  kBadVersion = 2,      ///< Frame version the connection may not use.
  kUnknownType = 3,     ///< Message type the server does not handle.
  kBadRequest = 4,      ///< Decoded, but semantically invalid.
  kOverloaded = 5,      ///< Shed by admission control; retry later.
  kInternal = 6,        ///< Server-side failure while handling.
};

/// Stable name for logs ("OVERLOADED", ...); "UNKNOWN" if invalid.
const char* WireErrorToString(WireError error);

/// One parsed frame: the fixed header plus the raw body bytes. When the
/// sender attached a trace extension (kFrameVersionTraceBit), the
/// decoder strips it into the trace_* fields and masks the version
/// byte, so `version` always holds a plain protocol version.
struct Frame {
  std::uint8_t version = kWireVersionV2;
  MessageType type = MessageType::kPingRequest;
  std::uint64_t request_id = 0;
  std::string body;

  bool has_trace = false;
  std::uint64_t trace_id = 0;
  std::uint8_t trace_flags = 0;
  std::uint8_t trace_hop = 0;
};

/// Serializes `frame` (length prefix included) onto `out`. If
/// `frame.has_trace` is set, the trace extension is emitted and the
/// version byte carries kFrameVersionTraceBit.
void AppendFrame(const Frame& frame, std::string* out);

/// Splices a trace extension into `encoded_frame` (one already-complete
/// frame as produced by the Encode* helpers): sets kFrameVersionTraceBit
/// on the version byte, inserts {trace_id, flags, hop} after the request
/// id, and patches the length prefix. Lets callers stamp a context onto
/// pre-encoded bytes without threading trace state through every codec.
void StampTraceExtension(std::string* encoded_frame, std::uint64_t trace_id,
                         std::uint8_t flags, std::uint8_t hop);

/// Incremental frame extractor for a byte stream. Feed bytes with
/// Append, then drain complete frames with Next. One decoder per
/// connection; not thread-safe.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }

  /// Extracts the next complete frame.
  ///  - OK: one frame (version is NOT validated here — callers decide
  ///    how to answer a bad version).
  ///  - NotFound: the buffer holds only a partial frame; feed more bytes.
  ///  - Corruption: structurally invalid stream (payload length below
  ///    the header size or above max_frame_bytes). The connection is
  ///    unrecoverable: framing is lost, so the caller must close it.
  StatusOr<Frame> Next();

  /// Bytes currently buffered (partial frame awaiting more input).
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Request codecs.

/// Ping: empty body.
std::string EncodePingRequest(std::uint64_t request_id);

/// Recommend body: u64 user, i64 now, u32 top_n, u32 seed count, then
/// one u64 per seed video.
std::string EncodeRecommendRequest(std::uint64_t request_id,
                                   const RecRequest& request);
StatusOr<RecRequest> DecodeRecommendRequest(const Frame& frame);

/// Observe body: u64 user, u64 video, u8 action type, f64 view
/// fraction, i64 time.
std::string EncodeObserveRequest(std::uint64_t request_id,
                                 const UserAction& action);
StatusOr<UserAction> DecodeObserveRequest(const Frame& frame);

/// Stats: empty body. Asks the server for a scrape of its metrics
/// registry; answered with a StatsResponse carrying Prometheus text.
/// Like ping, Stats bypasses admission control — observability must
/// keep working while the server is shedding load.
std::string EncodeStatsRequest(std::uint64_t request_id);

/// Hello body (request): u8 min_version, u8 max_version, u32 feature
/// bits (kFeature*; receivers ignore unknown bits). The server accepts
/// the Hello when [min_version, max_version] contains 2.
struct HelloRequest {
  std::uint8_t min_version = kWireVersionV2;
  std::uint8_t max_version = kWireVersionV2;
  std::uint32_t features = 0;
};
std::string EncodeHelloRequest(std::uint64_t request_id,
                               const HelloRequest& hello);
StatusOr<HelloRequest> DecodeHelloRequest(const Frame& frame);

/// RegisterProfile body: u64 user, u8 registered, u8 gender, u8 age
/// bucket, u8 education.
struct ProfileUpdate {
  UserId user = 0;
  UserProfile profile;
};
std::string EncodeRegisterProfileRequest(std::uint64_t request_id,
                                         UserId user,
                                         const UserProfile& profile);
StatusOr<ProfileUpdate> DecodeRegisterProfileRequest(const Frame& frame);

// ---------------------------------------------------------------------------
// Response codecs.

/// Pong / Ack: empty bodies.
std::string EncodePongResponse(std::uint64_t request_id);
std::string EncodeAckResponse(std::uint64_t request_id);

/// Bit set in the RecommendResponse flags byte when the server answered
/// from the degraded fallback (demographic hot videos) rather than the
/// full engine — because the engine errored, breached its deadline
/// budget, or the server's circuit breaker is open.
inline constexpr std::uint8_t kRecommendFlagDegraded = 0x01;

/// A decoded RecommendResponse: the ranked videos plus the flags byte.
struct RecommendReply {
  std::vector<ScoredVideo> videos;
  std::uint8_t flags = 0;

  bool degraded() const { return (flags & kRecommendFlagDegraded) != 0; }
};

/// RecommendResponse body: u8 flags (kRecommendFlag*; unknown bits are
/// ignored by receivers), u32 count, then (u64 video, f64 score) pairs.
std::string EncodeRecommendResponse(std::uint64_t request_id,
                                    const std::vector<ScoredVideo>& results,
                                    std::uint8_t flags = 0);
StatusOr<RecommendReply> DecodeRecommendReply(const Frame& frame);

/// Hello body (response): u8 version (always 2), u32 acked feature bits,
/// u32 max in-flight hint (the server's admission cap; 0 = no hint). A
/// Hello whose range excludes 2 gets BAD_VERSION instead.
struct HelloReply {
  std::uint8_t version = kWireVersionV2;
  std::uint32_t features = 0;
  std::uint32_t max_in_flight_hint = 0;
};
std::string EncodeHelloResponse(std::uint64_t request_id,
                                const HelloReply& reply);
StatusOr<HelloReply> DecodeHelloResponse(const Frame& frame);

/// StatsResponse body: u32 text length, then that many bytes of
/// Prometheus text-format (0.0.4) metrics. The encoder truncates at the
/// last newline that fits under `max_text_bytes` so the payload is
/// always a whole number of exposition lines.
std::string EncodeStatsResponse(std::uint64_t request_id,
                                std::string_view text,
                                std::size_t max_text_bytes =
                                    kDefaultMaxFrameBytes - 1024);
StatusOr<std::string> DecodeStatsResponse(const Frame& frame);

/// ErrorResponse body: u8 error code, u16 message length, message bytes.
struct WireErrorInfo {
  WireError code = WireError::kInternal;
  std::string message;
};
std::string EncodeErrorResponse(std::uint64_t request_id, WireError code,
                                std::string_view message);
StatusOr<WireErrorInfo> DecodeErrorResponse(const Frame& frame);

/// Maps an ErrorResponse to the Status a client API surfaces:
/// kOverloaded -> Unavailable (retryable), kBadRequest/kMalformedFrame/
/// kBadVersion/kUnknownType -> InvalidArgument, kInternal -> Internal.
Status WireErrorToStatus(const WireErrorInfo& error);

}  // namespace rtrec

#endif  // RTREC_NET_WIRE_H_
