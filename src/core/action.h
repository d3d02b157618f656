#ifndef RTREC_CORE_ACTION_H_
#define RTREC_CORE_ACTION_H_

#include <string>

#include "common/status.h"
#include "common/types.h"

namespace rtrec {

/// The implicit-feedback user behaviours of Section 3.2 / Table 1.
enum class ActionType {
  /// Video i was displayed to user u (no engagement signal).
  kImpress = 0,
  /// User clicked through to the video page.
  kClick,
  /// Playback started.
  kPlay,
  /// A play finished (or was sampled); carries the viewed fraction.
  kPlayTime,
  /// User commented on the video.
  kComment,
  /// User liked / thumbed-up the video.
  kLike,
  /// User shared the video.
  kShare,
};

/// Number of distinct ActionType values.
inline constexpr int kNumActionTypes = 7;

/// Stable lowercase name ("impress", "click", ...).
const char* ActionTypeToString(ActionType type);

/// Parses the name produced by ActionTypeToString.
StatusOr<ActionType> ActionTypeFromString(const std::string& name);

/// One element of the user-action stream: the tuple
/// <user, video, action, value, time> the spout emits (Fig. 2).
struct UserAction {
  UserId user = 0;
  VideoId video = 0;
  ActionType type = ActionType::kImpress;
  /// For kPlayTime: the viewed fraction vrate = t_ui / t_i in [0, 1].
  /// Ignored for other types.
  double view_fraction = 0.0;
  Timestamp time = 0;

  friend bool operator==(const UserAction&, const UserAction&) = default;
};

}  // namespace rtrec

#endif  // RTREC_CORE_ACTION_H_
