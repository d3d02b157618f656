// Table 1 — user action weight settings. Prints the confidence weight of
// every action type under the default FeedbackConfig, including the
// PlayTime view-rate law of Eq. 6 (the paper prints the PlayTime range
// [1.5, 2.5]).

#include <cstdio>
#include <iostream>

#include "core/implicit_feedback.h"
#include "eval/experiment_runner.h"

using namespace rtrec;

int main() {
  std::printf("=== Table 1: user action weight settings ===\n\n");
  const FeedbackConfig config;
  if (Status s = config.Validate(); !s.ok()) {
    std::fprintf(stderr, "invalid config: %s\n", s.ToString().c_str());
    return 1;
  }

  TablePrinter table({"Action", "Weight"});
  for (ActionType type :
       {ActionType::kImpress, ActionType::kClick, ActionType::kPlay,
        ActionType::kComment, ActionType::kLike, ActionType::kShare}) {
    UserAction action;
    action.type = type;
    table.AddRow({ActionTypeToString(type),
                  Cell(ActionConfidence(action, config), 2)});
  }
  UserAction full_watch;
  full_watch.type = ActionType::kPlayTime;
  full_watch.view_fraction = 1.0;
  UserAction min_watch = full_watch;
  min_watch.view_fraction = config.min_view_rate;
  std::string range = "[";
  range += Cell(ActionConfidence(min_watch, config), 2);
  range += ", ";
  range += Cell(ActionConfidence(full_watch, config), 2);
  range += "]";
  table.AddRow({"play_time", range});
  table.Print(std::cout);

  std::printf("\nEq. 6 PlayTime weight vs view rate "
              "(w = a + b*log10(vrate), a=%.1f b=%.1f):\n\n",
              config.playtime_a, config.playtime_b);
  TablePrinter sweep({"vrate", "weight"});
  for (double vrate : {0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    UserAction action;
    action.type = ActionType::kPlayTime;
    action.view_fraction = vrate;
    sweep.AddRow({Cell(vrate, 2), Cell(ActionConfidence(action, config), 3)});
  }
  sweep.Print(std::cout);
  std::printf("\n(vrate < %.2f falls back to the Play weight — inefficient "
              "plays carry no extra signal, Section 3.2)\n",
              config.min_view_rate);
  return 0;
}
