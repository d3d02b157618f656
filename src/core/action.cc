#include "core/action.h"

namespace rtrec {

const char* ActionTypeToString(ActionType type) {
  switch (type) {
    case ActionType::kImpress:
      return "impress";
    case ActionType::kClick:
      return "click";
    case ActionType::kPlay:
      return "play";
    case ActionType::kPlayTime:
      return "play_time";
    case ActionType::kComment:
      return "comment";
    case ActionType::kLike:
      return "like";
    case ActionType::kShare:
      return "share";
  }
  return "unknown";
}

StatusOr<ActionType> ActionTypeFromString(const std::string& name) {
  for (int i = 0; i < kNumActionTypes; ++i) {
    const ActionType type = static_cast<ActionType>(i);
    if (name == ActionTypeToString(type)) return type;
  }
  return Status::InvalidArgument("unknown action type '" + name + "'");
}

}  // namespace rtrec
