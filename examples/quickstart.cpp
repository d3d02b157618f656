// Quickstart: build a real-time recommendation engine, feed it a handful
// of user actions, and ask for recommendations — the smallest possible
// end-to-end use of the library.
//
//   $ ./quickstart
//
// Demonstrates: RecEngine (online MF + similar-video tables + serving
// path), implicit-feedback actions, and the two request scenarios.

#include <cstdio>

#include "rtrec.h"  // The umbrella header: the whole public API.

using rtrec::ActionType;
using rtrec::RecEngine;
using rtrec::RecRequest;
using rtrec::ScoredVideo;
using rtrec::Timestamp;
using rtrec::UserAction;
using rtrec::UserId;
using rtrec::VideoId;

namespace {

UserAction Watch(UserId user, VideoId video, double fraction, Timestamp t) {
  UserAction action;
  action.user = user;
  action.video = video;
  action.type = ActionType::kPlayTime;
  action.view_fraction = fraction;
  action.time = t;
  return action;
}

void PrintRecs(const char* label,
               const rtrec::StatusOr<std::vector<ScoredVideo>>& recs) {
  std::printf("%s\n", label);
  if (!recs.ok()) {
    std::printf("  error: %s\n", recs.status().ToString().c_str());
    return;
  }
  if (recs->empty()) std::printf("  (no recommendations)\n");
  for (const ScoredVideo& r : *recs) {
    std::printf("  video %llu   score %.4f\n",
                static_cast<unsigned long long>(r.video), r.score);
  }
}

}  // namespace

int main() {
  // A toy type system: videos 1-99 are "drama", 100+ are "sports".
  RecEngine engine(
      [](VideoId v) -> rtrec::VideoType { return v < 100 ? 0 : 1; });

  // Simulate a few viewers. Alice (1) and Bob (2) both binge dramas
  // 10/11/12; Carol (3) watches sports.
  Timestamp t = 0;
  for (int day = 0; day < 15; ++day) {
    for (UserId fan : {1, 2}) {
      engine.Observe(Watch(fan, 10, 0.95, t += 60'000));
      engine.Observe(Watch(fan, 11, 0.90, t += 60'000));
      engine.Observe(Watch(fan, 12, 0.85, t += 60'000));
    }
    engine.Observe(Watch(3, 100, 0.9, t += 60'000));
    engine.Observe(Watch(3, 101, 0.8, t += 60'000));
  }

  // Scenario 1 — "related videos": a brand-new viewer is watching video
  // 10; what should play next?
  RecRequest related;
  related.user = 42;           // Unknown user.
  related.seed_videos = {10};  // The video on screen.
  related.top_n = 3;
  related.now = t;
  PrintRecs("Related to video 10:", engine.Recommend(related));

  // Scenario 2 — "guess you like": Alice opens the homepage. Seeds come
  // from her own history; watched videos are excluded.
  RecRequest homepage;
  homepage.user = 1;
  homepage.top_n = 3;
  homepage.now = t;
  PrintRecs("Guess Alice likes:", engine.Recommend(homepage));

  // The model updates in real time: Carol suddenly watches drama 10; the
  // very next request already reflects it.
  engine.Observe(Watch(3, 10, 1.0, t += 60'000));
  RecRequest carol;
  carol.user = 3;
  carol.top_n = 3;
  carol.now = t;
  PrintRecs("Guess Carol likes (after her drama detour):",
            engine.Recommend(carol));

  std::printf("\nmodel state: %zu users, %zu videos\n",
              engine.factors().NumUsers(), engine.factors().NumVideos());
  return 0;
}
