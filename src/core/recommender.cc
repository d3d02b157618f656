#include "core/recommender.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>

#include "common/flat_id_map.h"

namespace rtrec {

MfRecommender::MfRecommender(const OnlineMf* model,
                             const HistoryStore* history,
                             const SimTableStore* table,
                             RecommendConfig config)
    : model_(model),
      history_(history),
      table_(table),
      config_(std::move(config)) {
  assert(model_ != nullptr);
  assert(history_ != nullptr);
  assert(table_ != nullptr);
  assert(config_.Validate().ok());
}

namespace {

/// One candidate of a request: its best decayed similarity over seeds.
struct Candidate {
  VideoId video = 0;
  double similarity = 0.0;
};

/// The buffers one Recommend call works in. Each serving thread keeps
/// one and reuses it, so once the buffers have grown to the largest
/// request a thread has served, a read allocates nothing but its
/// returned page.
struct RecommendScratch {
  std::vector<VideoId> seeds;
  std::vector<HistoryEntry> history;
  std::vector<SimilarVideo> similar;
  /// video → 1 + its index in `candidates`, or kExcluded.
  FlatIdMap candidate_index;
  std::vector<Candidate> candidates;
  std::vector<VideoId> ids;
  std::vector<float> user_row;
  std::vector<float> rows;
  std::vector<float> biases;
  std::unique_ptr<bool[]> found;
  std::size_t found_capacity = 0;
  std::vector<ScoredVideo> scored;

  std::span<bool> Found(std::size_t n) {
    if (n > found_capacity) {
      found = std::make_unique<bool[]>(n);
      found_capacity = n;
    }
    return {found.get(), n};
  }
};

/// candidate_index value of an explicitly requested seed.
constexpr std::uint32_t kExcluded = 0xFFFFFFFFu;

}  // namespace

StatusOr<std::vector<ScoredVideo>> MfRecommender::Recommend(
    const RecRequest& request) {
  thread_local RecommendScratch scratch;
  const std::size_t top_n = request.top_n > 0 ? request.top_n : config_.top_n;

  // 1. Seed videos: the one being watched, or the user's recent history
  //    ("guess you like", Section 6.2).
  std::vector<VideoId>& seeds = scratch.seeds;
  seeds.assign(request.seed_videos.begin(), request.seed_videos.end());
  if (seeds.empty()) {
    history_->GetRecentInto(request.user, config_.max_seed_videos,
                            scratch.history);
    for (const HistoryEntry& e : scratch.history) seeds.push_back(e.video);
  }
  if (seeds.empty()) {
    // Cold user with no seeds: nothing the CF path can do — the caller
    // falls back to demographic filtering (Section 5.2.1).
    return std::vector<ScoredVideo>{};
  }

  // 2. Candidate expansion through the similar-video tables, one hop
  //    from each seed (Section 5.2.1 rejects YouTube-style multi-hop
  //    closure for latency); keeping the best decayed similarity per
  //    candidate dedupes across seeds. Explicitly-requested seeds (the
  //    video on screen) are never recommended back; history is not
  //    excluded, so "guess you like" can resurface favourites. The
  //    requested seeds enter the index first, marked excluded, so one
  //    probe per neighbour both dedupes and excludes.
  FlatIdMap& index = scratch.candidate_index;
  std::vector<Candidate>& candidates = scratch.candidates;
  candidates.clear();
  index.Reset(request.seed_videos.size() +
              seeds.size() * config_.candidates_per_seed);
  for (VideoId seed : request.seed_videos) index.FindOrInsert(seed) = kExcluded;
  for (VideoId seed : seeds) {
    table_->QueryInto(seed, request.now, config_.candidates_per_seed,
                      scratch.similar);
    for (const SimilarVideo& similar : scratch.similar) {
      std::uint32_t& slot = index.FindOrInsert(similar.video);
      if (slot == kExcluded) continue;
      if (slot == 0) {
        candidates.push_back(Candidate{similar.video, similar.similarity});
        slot = static_cast<std::uint32_t>(candidates.size());
      } else {
        double& best = candidates[slot - 1].similarity;
        best = std::max(best, similar.similarity);
      }
    }
  }
  if (candidates.empty()) return std::vector<ScoredVideo>{};

  // Cap the candidate set by similarity to bound ranking cost
  // (Section 4.1's latency argument); ties go to the smaller id.
  if (candidates.size() > config_.max_candidates) {
    std::nth_element(
        candidates.begin(),
        candidates.begin() +
            static_cast<std::ptrdiff_t>(config_.max_candidates),
        candidates.end(), [](const Candidate& a, const Candidate& b) {
          if (a.similarity != b.similarity) {
            return a.similarity > b.similarity;
          }
          return a.video < b.video;
        });
    candidates.resize(config_.max_candidates);
  }

  // 3. Preference prediction (Eq. 2) and ranking. The user entry is
  //    fetched once; video entries arrive in one batched VectorsGet
  //    (Fig. 1) into this thread's row buffer — candidates are deduped
  //    already, so each vector is read at most once per request. An
  //    unknown user or video scores with its deterministic initial entry.
  const FactorStore& store = model_->store();
  const std::size_t f = static_cast<std::size_t>(store.num_factors());
  const std::size_t n = candidates.size();
  scratch.user_row.resize(f);
  float user_bias = 0.0f;
  if (!store.GetUserInto(request.user, scratch.user_row, user_bias)) {
    store.MakeInitialEntryInto(request.user, /*is_user=*/true,
                               scratch.user_row);
  }
  std::vector<VideoId>& ids = scratch.ids;
  ids.clear();
  for (const Candidate& c : candidates) ids.push_back(c.video);
  scratch.rows.resize(n * f);
  scratch.biases.resize(n);
  const std::span<bool> found = scratch.Found(n);
  store.GetVideosInto(ids, scratch.rows, scratch.biases, found);
  std::vector<ScoredVideo>& scored = scratch.scored;
  scored.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const std::span<float> row(scratch.rows.data() + k * f, f);
    if (!found[k]) {
      store.MakeInitialEntryInto(ids[k], /*is_user=*/false, row);
      scratch.biases[k] = 0.0f;
    }
    scored.push_back(ScoredVideo{
        ids[k], OnlineMf::PredictRows(user_bias, scratch.user_row,
                                      scratch.biases[k], row)});
  }

  // Partial selection: only the top-N need ordering, so select them with
  // nth_element and sort just that prefix instead of sorting every
  // candidate (Section 4.1's latency bound). The order is total, so the
  // page does not depend on the candidates' order.
  const auto better = [](const ScoredVideo& a, const ScoredVideo& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.video < b.video;  // Deterministic tie-break.
  };
  const std::size_t page = std::min(top_n, scored.size());
  if (scored.size() > page) {
    std::nth_element(scored.begin(),
                     scored.begin() + static_cast<std::ptrdiff_t>(page),
                     scored.end(), better);
  }
  std::sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(page),
            better);
  return std::vector<ScoredVideo>(
      scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(page));
}

}  // namespace rtrec
