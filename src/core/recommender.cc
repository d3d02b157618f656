#include "core/recommender.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

namespace rtrec {

MfRecommender::MfRecommender(OnlineMf* model, HistoryStore* history,
                             SimTableStore* table, SimTableUpdater* updater,
                             RecommendConfig config)
    : model_(model),
      history_(history),
      table_(table),
      updater_(updater),
      config_(std::move(config)) {
  assert(model_ != nullptr);
  assert(history_ != nullptr);
  assert(table_ != nullptr);
  assert(config_.Validate().ok());
}

StatusOr<std::vector<ScoredVideo>> MfRecommender::Recommend(
    const RecRequest& request) {
  const std::size_t top_n = request.top_n > 0 ? request.top_n : config_.top_n;

  // 1. Seed videos: the one being watched, or the user's recent history
  //    ("guess you like", Section 6.2).
  std::vector<VideoId> seeds = request.seed_videos;
  if (seeds.empty()) {
    for (const HistoryEntry& e :
         history_->GetRecent(request.user, config_.max_seed_videos)) {
      seeds.push_back(e.video);
    }
  }
  if (seeds.empty()) {
    // Cold user with no seeds: nothing the CF path can do — the caller
    // falls back to demographic filtering (Section 5.2.1).
    return std::vector<ScoredVideo>{};
  }

  // 2. Candidate expansion through the similar-video tables; keeping the
  //    best decayed similarity per candidate dedupes across seeds.
  //    Explicitly-requested seeds (the video on screen) are never
  //    recommended back; history is not excluded, so "guess you like"
  //    can resurface favourites.
  const std::unordered_set<VideoId> excluded(request.seed_videos.begin(),
                                             request.seed_videos.end());
  std::unordered_map<VideoId, double> candidate_sim;
  std::vector<VideoId> frontier = seeds;
  for (int hop = 0; hop < config_.candidate_hops; ++hop) {
    // Hop 0 expands every seed fully; deeper hops (the YouTube-style
    // limited transitive closure) expand a bounded fan-out of the best
    // candidates found so far, with similarity damped multiplicatively
    // along the path.
    const std::size_t per_node =
        hop == 0 ? config_.candidates_per_seed : config_.hop_fanout;
    // Candidates improved this hop, each recorded once: a node whose best
    // path similarity improves several times (reached from several
    // frontier nodes) must not occupy several frontier slots or be
    // expanded more than once next hop.
    std::unordered_set<VideoId> improved;
    for (VideoId node : frontier) {
      const double base =
          hop == 0 ? 1.0 : candidate_sim[node];
      for (const SimilarVideo& similar :
           table_->Query(node, request.now, per_node)) {
        if (excluded.contains(similar.video)) continue;
        const double path_sim = base * similar.similarity;
        double& best = candidate_sim[similar.video];
        if (path_sim > best) {
          best = path_sim;
          improved.insert(similar.video);
        }
      }
    }
    if (hop + 1 >= config_.candidate_hops) break;
    // Next frontier: strongest newly-improved candidates, capped by
    // distinct candidate count.
    std::vector<std::pair<VideoId, double>> next_frontier;
    next_frontier.reserve(improved.size());
    for (VideoId video : improved) {
      next_frontier.emplace_back(video, candidate_sim[video]);
    }
    const std::size_t cap = config_.hop_fanout * seeds.size();
    if (next_frontier.size() > cap) {
      std::nth_element(
          next_frontier.begin(),
          next_frontier.begin() + static_cast<std::ptrdiff_t>(cap),
          next_frontier.end(), [](const auto& a, const auto& b) {
            if (a.second != b.second) return a.second > b.second;
            return a.first < b.first;  // Deterministic tie-break.
          });
      next_frontier.resize(cap);
    }
    frontier.clear();
    for (const auto& [video, sim] : next_frontier) frontier.push_back(video);
    if (frontier.empty()) break;
  }
  if (candidate_sim.empty()) return std::vector<ScoredVideo>{};

  // Cap the candidate set by similarity to bound ranking cost
  // (Section 4.1's latency argument).
  std::vector<std::pair<VideoId, double>> candidates(candidate_sim.begin(),
                                                     candidate_sim.end());
  if (candidates.size() > config_.max_candidates) {
    std::nth_element(
        candidates.begin(),
        candidates.begin() +
            static_cast<std::ptrdiff_t>(config_.max_candidates),
        candidates.end(),
        [](const auto& a, const auto& b) { return a.second > b.second; });
    candidates.resize(config_.max_candidates);
  }

  // 3. Preference prediction (Eq. 2) and ranking. The user entry is
  //    fetched once; video entries arrive in one batched VectorsGet
  //    (Fig. 1) — candidates are deduped already, so each vector is read
  //    at most once per request.
  FactorStore& store = model_->store();
  StatusOr<FactorEntry> user_entry = store.GetUser(request.user);
  const FactorEntry user =
      user_entry.ok()
          ? std::move(user_entry).value()
          : store.MakeInitialEntry(request.user, /*is_user=*/true);

  std::vector<VideoId> ids;
  ids.reserve(candidates.size());
  for (const auto& [video, sim] : candidates) ids.push_back(video);
  std::vector<FactorStore::VideoBatchEntry> batch = store.GetVideos(ids);
  std::vector<ScoredVideo> scored;
  scored.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    // An unknown video scores with its deterministic initial entry.
    const FactorEntry video =
        batch[i].found ? std::move(batch[i].entry)
                       : store.MakeInitialEntry(ids[i], /*is_user=*/false);
    scored.push_back(
        ScoredVideo{ids[i], model_->PredictWithEntries(user, video)});
  }

  // Partial selection: only the top-N need ordering, so select them with
  // nth_element and sort just that prefix instead of sorting every
  // candidate (Section 4.1's latency bound).
  const auto better = [](const ScoredVideo& a, const ScoredVideo& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.video < b.video;  // Deterministic tie-break.
  };
  if (scored.size() > top_n) {
    std::nth_element(scored.begin(),
                     scored.begin() + static_cast<std::ptrdiff_t>(top_n),
                     scored.end(), better);
    scored.resize(top_n);
  }
  std::sort(scored.begin(), scored.end(), better);
  return scored;
}

void MfRecommender::Observe(const UserAction& action) {
  model_->Update(action);
  if (updater_ != nullptr) {
    // The updater also appends to the history store.
    updater_->OnAction(action);
  } else {
    const double confidence =
        ActionConfidence(action, model_->config().feedback);
    if (confidence > 0.0) {
      history_->Append(action.user,
                       HistoryEntry{action.video, confidence, action.time});
    }
  }
}

}  // namespace rtrec
