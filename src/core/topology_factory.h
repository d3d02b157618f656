#ifndef RTREC_CORE_TOPOLOGY_FACTORY_H_
#define RTREC_CORE_TOPOLOGY_FACTORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/action.h"
#include "core/model_config.h"
#include "core/similarity.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"
#include "kvstore/sim_table_store.h"
#include "stream/topology_builder.h"
#include "stream/tuple.h"

namespace rtrec {

/// Thread-safe source of user actions for the topology's spout tasks.
/// Multiple spout tasks pull from one source concurrently.
class ActionSource {
 public:
  virtual ~ActionSource() = default;

  /// Next action, or nullopt when the stream is exhausted (finite replay).
  virtual std::optional<UserAction> Next() = 0;
};

/// Replays a fixed action log; spout tasks claim actions with an atomic
/// cursor, so each action is emitted exactly once.
class VectorActionSource : public ActionSource {
 public:
  explicit VectorActionSource(std::vector<UserAction> actions)
      : actions_(std::move(actions)) {}

  std::optional<UserAction> Next() override {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= actions_.size()) return std::nullopt;
    return actions_[i];
  }

  std::size_t size() const { return actions_.size(); }

 private:
  std::vector<UserAction> actions_;
  std::atomic<std::size_t> cursor_{0};
};

/// Shared state the recommendation topology operates on: exactly the
/// KVStore boxes of Fig. 2. All pointers are shared, not owned, and must
/// outlive the running topology.
struct PipelineDeps {
  FactorStore* factors = nullptr;
  HistoryStore* history = nullptr;
  SimTableStore* sim_table = nullptr;
  VideoTypeResolver type_resolver;
  MfModelConfig model_config;
  SimilarityConfig sim_config;
};

/// Per-component task counts. Defaults give a small multi-threaded
/// pipeline; benches sweep these.
struct PipelineParallelism {
  std::size_t spout = 1;
  std::size_t compute_mf = 2;
  std::size_t mf_storage = 2;
  std::size_t user_history = 2;
  std::size_t get_item_pairs = 2;
  std::size_t item_pair_sim = 2;
  std::size_t result_storage = 2;
};

/// Field schemas shared by the pipeline's streams. Each lives for the
/// whole process, as a tuple's schema must (stream/tuple.h).
namespace pipeline_schema {

/// <user, video, action, value, time> — the spout's output (Fig. 2).
const stream::Schema* Action();
/// <user, vec, bias> on stream "user_vec".
const stream::Schema* UserVec();
/// <video, vec, bias> on stream "video_vec".
const stream::Schema* VideoVec();
/// <user, video, time, partners> on stream "partners": the action and
/// the user's recent videos as they stood before it (vector<int64>,
/// empty for actions too weak to pair).
const stream::Schema* Partners();
/// <pair_key, video1, video2, time> on stream "pairs".
const stream::Schema* Pair();
/// <video1, video2, sim, time> on stream "pair_sim".
const stream::Schema* PairSim();

}  // namespace pipeline_schema

/// Converts an action to the spout's tuple layout, and an action tuple
/// back.
stream::Tuple ActionToTuple(const UserAction& action);
StatusOr<UserAction> TupleToAction(const stream::Tuple& tuple);

/// The "pair_key" field: a 64-bit hash of the normalized pair, so both
/// orders of a pair share one key and fields grouping sends every
/// occurrence of a pair to the same ItemPairSim task. Distinct pairs may
/// share a key; that only co-locates them.
inline std::int64_t PairKey(const VideoPair& pair) {
  return static_cast<std::int64_t>(VideoPairHash{}(pair));
}

/// Builds the Fig. 2 topology over `deps`' stores:
///
///   spout ──shuffle──> compute_mf ──fields(user)──> mf_storage
///                            └──────fields(video)───────┘
///   spout ──fields(user)──> user_history
///       ──fields(user)──> get_item_pairs
///       ──fields(pair_key)──> item_pair_sim
///       ──fields(video1)──> result_storage
///
/// ComputeMF reads the vectors and ships new ones; the fields-grouped
/// MFStorage tasks are their single writers. UserHistory, the single
/// writer of a user's history, reads the user's partners and appends the
/// action in one step (ReadPartnersThenAppend, as the engine's
/// SimTableUpdater does) and hands them to GetItemPairs, so pairs never
/// depend on how far one bolt's tasks have run ahead of another's. The
/// pair-key grouping lets each ItemPairSim task keep an LRU of recent
/// pair similarities (Section 5.1's cache).
StatusOr<stream::TopologySpec> BuildRecommendationTopology(
    std::shared_ptr<ActionSource> source, const PipelineDeps& deps,
    const PipelineParallelism& parallelism = {});

}  // namespace rtrec

#endif  // RTREC_CORE_TOPOLOGY_FACTORY_H_
