#include "core/topology_factory.h"

#include <string>
#include <utility>

#include "common/lru_cache.h"
#include "core/implicit_feedback.h"
#include "core/online_mf.h"
#include "core/sim_table.h"
#include "stream/reliable_spout.h"

namespace rtrec {

namespace pipeline_schema {

// Never destroyed: tuples refer to their schema by plain pointer, so no
// tuple alive during static destruction may outlive its schema.
const stream::Schema* Action() {
  static const stream::Schema* schema = new stream::Schema{
      "group", "user", "video", "action", "value", "time"};
  return schema;
}

const stream::Schema* UserVec() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "user", "vec", "bias"};
  return schema;
}

const stream::Schema* VideoVec() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "video", "vec", "bias"};
  return schema;
}

const stream::Schema* Partners() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "user", "video", "time", "partners"};
  return schema;
}

const stream::Schema* Pair() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "pair_key", "video1", "video2", "time"};
  return schema;
}

const stream::Schema* PairSim() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "video1", "video2", "sim", "time"};
  return schema;
}

}  // namespace pipeline_schema

namespace {

// Field positions within the pipeline_schema layouts, all of which lead
// with the group; bolts read by position after checking the schema.
constexpr std::size_t kGroup = 0;
enum ActionField : std::size_t { kUser = 1, kVideo, kAction, kValue, kTime };
enum VecField : std::size_t { kVecId = 1, kVec, kVecBias };
enum PartnersField : std::size_t {
  kPartnersUser = 1,
  kPartnersVideo,
  kPartnersTime,
  kPartners
};
enum PairField : std::size_t {
  kPairKey = 1,
  kPairVideo1,
  kPairVideo2,
  kPairTime
};
enum PairSimField : std::size_t { kSimVideo1 = 1, kSimVideo2, kSim, kSimTime };

std::int64_t GroupField(GroupId group) {
  return static_cast<std::int64_t>(group);
}

/// Reads the leading group field; false if absent or mistyped.
bool ReadGroup(const stream::Tuple& tuple, GroupId* group) {
  const auto* g = tuple.GetIf<std::int64_t>(kGroup);
  if (g == nullptr) return false;
  *group = static_cast<GroupId>(*g);
  return true;
}

/// Decodes an Action tuple; false for any other schema, a missing or
/// mistyped field, or an out-of-range action code.
bool ReadAction(const stream::Tuple& tuple, GroupId* group, UserAction* out) {
  if (tuple.schema() != pipeline_schema::Action() ||
      !ReadGroup(tuple, group)) {
    return false;
  }
  const auto* user = tuple.GetIf<std::int64_t>(kUser);
  const auto* video = tuple.GetIf<std::int64_t>(kVideo);
  const auto* action = tuple.GetIf<std::int64_t>(kAction);
  const auto* time = tuple.GetIf<std::int64_t>(kTime);
  const auto* value = tuple.GetIf<double>(kValue);
  // Ints silently widen; action weights are often emitted as ints.
  const auto* int_value = tuple.GetIf<std::int64_t>(kValue);
  if (user == nullptr || video == nullptr || action == nullptr ||
      time == nullptr || (value == nullptr && int_value == nullptr)) {
    return false;
  }
  if (*action < 0 || *action >= kNumActionTypes) return false;
  out->user = static_cast<UserId>(*user);
  out->video = static_cast<VideoId>(*video);
  out->type = static_cast<ActionType>(*action);
  out->view_fraction =
      value != nullptr ? *value : static_cast<double>(*int_value);
  out->time = *time;
  return true;
}

}  // namespace

stream::Tuple ActionToTuple(const UserAction& action, GroupId group) {
  return stream::Tuple(pipeline_schema::Action(), GroupField(group),
                       static_cast<std::int64_t>(action.user),
                       static_cast<std::int64_t>(action.video),
                       static_cast<std::int64_t>(action.type),
                       action.view_fraction, action.time);
}

StatusOr<UserAction> TupleToAction(const stream::Tuple& tuple) {
  GroupId group = 0;
  UserAction out;
  if (!ReadAction(tuple, &group, &out)) {
    return Status::InvalidArgument("not a well-formed action tuple");
  }
  return out;
}

namespace {

using GroupOf = std::function<GroupId(UserId)>;
using StoresOf = std::function<PipelineStores(GroupId)>;

/// Parses the raw message, filters unqualified tuples, stamps the user's
/// group and forwards — the spout of Fig. 2. Pulls from a shared
/// ActionSource.
class ActionSpout : public stream::Spout {
 public:
  ActionSpout(std::shared_ptr<ActionSource> source, GroupOf group_of)
      : source_(std::move(source)), group_of_(std::move(group_of)) {}

  bool Next(stream::OutputCollector& collector) override {
    std::optional<UserAction> action = source_->Next();
    if (!action.has_value()) return false;
    collector.Emit(ActionToTuple(*action, group_of_(action->user)));
    return true;
  }

 private:
  std::shared_ptr<ActionSource> source_;
  GroupOf group_of_;
};

/// ComputeMF bolt: Algorithm 1's read-compute step on the group's
/// vectors (OnlineMf::ComputeStep, as the engine runs it), shipping the
/// *new* vectors to MFStorage keyed by (group, id). It never writes the
/// vectors itself — the fields-grouped MFStorage tasks are the single
/// writers per key.
class ComputeMfBolt : public stream::Bolt {
 public:
  ComputeMfBolt(StoresOf stores_of, MfModelConfig config)
      : stores_of_(std::move(stores_of)), config_(std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = 0;
    UserAction action;
    // Unqualified tuple; spout-level filtering.
    if (!ReadAction(tuple, &group, &action)) return;
    FactorEntry user;
    FactorEntry video;
    if (!OnlineMf::ComputeStep(*stores_of_(group).factors, config_,
                               /*hook=*/nullptr, action, &user, &video)
             .updated) {
      return;  // Impressions do not update the model.
    }
    collector.EmitTo(
        "user_vec",
        stream::Tuple(pipeline_schema::UserVec(), GroupField(group),
                      static_cast<std::int64_t>(action.user),
                      std::move(user.vec), static_cast<double>(user.bias)));
    collector.EmitTo(
        "video_vec",
        stream::Tuple(pipeline_schema::VideoVec(), GroupField(group),
                      static_cast<std::int64_t>(action.video),
                      std::move(video.vec), static_cast<double>(video.bias)));
  }

 private:
  StoresOf stores_of_;
  MfModelConfig config_;
};

/// MFStorage bolt: writes new vectors to the group's KV store. Fields
/// grouping by (group, id) guarantees a single writer per user/video, so
/// writes are atomic without locking coordination across tasks
/// (Section 5.1).
class MfStorageBolt : public stream::Bolt {
 public:
  explicit MfStorageBolt(StoresOf stores_of)
      : stores_of_(std::move(stores_of)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    const bool is_user = tuple.schema() == pipeline_schema::UserVec();
    if (!is_user && tuple.schema() != pipeline_schema::VideoVec()) return;
    GroupId group = 0;
    const auto* id = tuple.GetIf<std::int64_t>(kVecId);
    const auto* vec = tuple.GetIf<std::vector<float>>(kVec);
    const auto* bias = tuple.GetIf<double>(kVecBias);
    if (!ReadGroup(tuple, &group) || id == nullptr || vec == nullptr ||
        bias == nullptr) {
      return;
    }
    // Written straight from the tuple's vector: no copy.
    FactorStore& factors = *stores_of_(group).factors;
    if (is_user) {
      factors.PutUser(static_cast<UserId>(*id), *vec,
                      static_cast<float>(*bias));
    } else {
      factors.PutVideo(static_cast<VideoId>(*id), *vec,
                       static_cast<float>(*bias));
    }
  }

 private:
  StoresOf stores_of_;
};

/// UserHistory bolt: records behaviour histories, fields-grouped by
/// (group, user), so each task is the single writer of its users'
/// histories. It takes each action's partners and appends it in one step
/// (ReadPartnersThenAppend, exactly as SimTableUpdater::OnAction does),
/// and forwards every action with its partners to GetItemPairs.
class UserHistoryBolt : public stream::Bolt {
 public:
  UserHistoryBolt(StoresOf stores_of, SimilarityConfig config,
                  FeedbackConfig feedback)
      : stores_of_(std::move(stores_of)),
        config_(std::move(config)),
        feedback_(feedback) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = 0;
    UserAction action;
    if (!ReadAction(tuple, &group, &action)) return;
    std::vector<std::int64_t> partners;
    ReadPartnersThenAppend(*stores_of_(group).history, action,
                           ActionConfidence(action, feedback_), config_,
                           partners);
    collector.EmitTo(
        "partners",
        stream::Tuple(pipeline_schema::Partners(), GroupField(group),
                      static_cast<std::int64_t>(action.user),
                      static_cast<std::int64_t>(action.video), action.time,
                      std::move(partners)));
  }

 private:
  StoresOf stores_of_;
  SimilarityConfig config_;
  FeedbackConfig feedback_;
};

/// GetItemPairs bolt: joins an action with the partners UserHistory read
/// for it and emits one tuple per (video1, video2) pair, keyed by the
/// normalized pair key so equal pairs of a group co-locate downstream
/// (enabling the combiner/cache optimizations of Section 5.1).
class GetItemPairsBolt : public stream::Bolt {
 public:
  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = 0;
    if (tuple.schema() != pipeline_schema::Partners() ||
        !ReadGroup(tuple, &group)) {
      return;
    }
    const auto* video = tuple.GetIf<std::int64_t>(kPartnersVideo);
    const auto* time = tuple.GetIf<std::int64_t>(kPartnersTime);
    const auto* partners =
        tuple.GetIf<std::vector<std::int64_t>>(kPartners);
    if (video == nullptr || time == nullptr || partners == nullptr) return;
    for (const std::int64_t partner : *partners) {
      collector.EmitTo(
          "pairs",
          stream::Tuple(pipeline_schema::Pair(), GroupField(group),
                        PairKey(VideoPair(static_cast<VideoId>(*video),
                                          static_cast<VideoId>(partner))),
                        *video, partner, *time));
    }
  }
};

/// ItemPairSim bolt: the fused similarity of a pair from the group's
/// current latent vectors and the type system (PairSimilarity, Eq. 9,
/// 10, 12).
///
/// Section 5.1's "cache technique": because tuples are fields-grouped by
/// (group, pair key), every occurrence of a group's pair reaches the same
/// task, so a task-local LRU of recent results skips the KV-store vector
/// fetches and the similarity recomputation for hot pairs. The cache is
/// keyed by (group, pair): groups have their own vectors, so one group's
/// similarity is never another's.
class ItemPairSimBolt : public stream::Bolt {
 public:
  ItemPairSimBolt(StoresOf stores_of, VideoTypeResolver type_resolver,
                  SimilarityConfig config)
      : stores_of_(std::move(stores_of)),
        type_resolver_(std::move(type_resolver)),
        config_(std::move(config)),
        cache_(config_.pair_cache_size == 0 ? 1 : config_.pair_cache_size) {}

  void Prepare(const stream::TaskContext& context) override {
    if (context.metrics != nullptr) {
      cache_hits_ =
          context.metrics->GetCounter(context.component + ".cache_hits");
      cache_misses_ =
          context.metrics->GetCounter(context.component + ".cache_misses");
    }
  }

  void Cleanup() override { PublishCacheCounts(); }

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    if (tuple.schema() != pipeline_schema::Pair()) return;
    GroupId group = 0;
    const auto* v1 = tuple.GetIf<std::int64_t>(kPairVideo1);
    const auto* v2 = tuple.GetIf<std::int64_t>(kPairVideo2);
    const auto* time = tuple.GetIf<std::int64_t>(kPairTime);
    if (!ReadGroup(tuple, &group) || v1 == nullptr || v2 == nullptr ||
        time == nullptr) {
      return;
    }
    const VideoId a = static_cast<VideoId>(*v1);
    const VideoId b = static_cast<VideoId>(*v2);

    double fused = 0.0;
    bool cached = false;
    const CacheKey key{group, VideoPair(a, b)};
    if (config_.pair_cache_size > 0) {
      if (CachedSim* entry = cache_.Get(key); entry != nullptr) {
        const double age = static_cast<double>(*time - entry->computed_at);
        if (age >= 0.0 && age <= config_.pair_cache_ttl_millis) {
          fused = entry->sim;
          cached = true;
        }
      }
    }
    if (!cached) {
      fused = PairSimilarity(*stores_of_(group).factors, type_resolver_,
                             config_, a, b);
      if (config_.pair_cache_size > 0) {
        cache_.Put(key, CachedSim{fused, *time});
      }
    }
    ++(cached ? unpublished_hits_ : unpublished_misses_);
    if (unpublished_hits_ + unpublished_misses_ >= kPublishEvery) {
      PublishCacheCounts();
    }

    collector.EmitTo(
        "pair_sim",
        stream::Tuple(pipeline_schema::PairSim(), GroupField(group),
                      static_cast<std::int64_t>(a),
                      static_cast<std::int64_t>(b), fused, *time));
  }

 private:
  struct CacheKey {
    GroupId group = kGlobalGroup;
    VideoPair pair;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const {
      return VideoPairHash{}(key.pair) ^ MixHash64(key.group);
    }
  };
  struct CachedSim {
    double sim = 0.0;
    Timestamp computed_at = 0;
  };

  // Hit/miss counts are tallied per task and published every
  // kPublishEvery tuples and at Cleanup (end of stream or restart), so
  // sibling tasks do not share a counter write per pair.
  static constexpr std::int64_t kPublishEvery = 64;

  void PublishCacheCounts() {
    if (cache_hits_ != nullptr) cache_hits_->Increment(unpublished_hits_);
    if (cache_misses_ != nullptr) {
      cache_misses_->Increment(unpublished_misses_);
    }
    unpublished_hits_ = 0;
    unpublished_misses_ = 0;
  }

  StoresOf stores_of_;
  VideoTypeResolver type_resolver_;
  SimilarityConfig config_;
  LruCache<CacheKey, CachedSim, CacheKeyHash> cache_;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
  std::int64_t unpublished_hits_ = 0;
  std::int64_t unpublished_misses_ = 0;
};

/// ResultStorage bolt: persists the group's top-N similar-video lists.
class ResultStorageBolt : public stream::Bolt {
 public:
  explicit ResultStorageBolt(StoresOf stores_of)
      : stores_of_(std::move(stores_of)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    if (tuple.schema() != pipeline_schema::PairSim()) return;
    GroupId group = 0;
    const auto* v1 = tuple.GetIf<std::int64_t>(kSimVideo1);
    const auto* v2 = tuple.GetIf<std::int64_t>(kSimVideo2);
    const auto* sim = tuple.GetIf<double>(kSim);
    const auto* time = tuple.GetIf<std::int64_t>(kSimTime);
    if (!ReadGroup(tuple, &group) || v1 == nullptr || v2 == nullptr ||
        sim == nullptr || time == nullptr) {
      return;
    }
    stores_of_(group).sim_table->Update(static_cast<VideoId>(*v1),
                                        static_cast<VideoId>(*v2), *sim,
                                        *time);
  }

 private:
  StoresOf stores_of_;
};

}  // namespace

StatusOr<stream::TopologySpec> BuildRecommendationTopology(
    std::shared_ptr<ActionSource> source, const PipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (deps.factors == nullptr || deps.history == nullptr ||
      deps.sim_table == nullptr) {
    return Status::InvalidArgument("incomplete pipeline deps");
  }
  const PipelineStores stores{deps.factors, deps.history, deps.sim_table};
  GroupedPipelineDeps grouped;
  grouped.group_of = [](UserId) { return kGlobalGroup; };
  grouped.stores_of = [stores](GroupId) { return stores; };
  grouped.type_resolver = deps.type_resolver;
  grouped.model_config = deps.model_config;
  grouped.sim_config = deps.sim_config;
  grouped.reliable_spout = deps.reliable_spout;
  return BuildGroupedTopology(std::move(source), grouped, parallelism);
}

StatusOr<stream::TopologySpec> BuildGroupedTopology(
    std::shared_ptr<ActionSource> source, const GroupedPipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (source == nullptr) return Status::InvalidArgument("null action source");
  if (deps.group_of == nullptr || deps.stores_of == nullptr ||
      deps.type_resolver == nullptr) {
    return Status::InvalidArgument("incomplete pipeline deps");
  }
  RTREC_RETURN_IF_ERROR(deps.model_config.Validate());
  RTREC_RETURN_IF_ERROR(deps.sim_config.Validate());

  // Copy dependencies into the factories (executed once per task).
  GroupOf group_of = deps.group_of;
  StoresOf stores_of = deps.stores_of;
  VideoTypeResolver type_resolver = deps.type_resolver;
  MfModelConfig model_config = deps.model_config;
  SimilarityConfig sim_config = deps.sim_config;
  FeedbackConfig feedback = model_config.feedback;

  stream::TopologyBuilder builder;
  if (deps.reliable_spout) {
    builder.AddSpout(
        "spout",
        [source, group_of] {
          return std::make_unique<stream::ReliableReplaySpout>(
              [source, group_of]() -> std::optional<stream::Tuple> {
                std::optional<UserAction> action = source->Next();
                if (!action.has_value()) return std::nullopt;
                return ActionToTuple(*action, group_of(action->user));
              });
        },
        parallelism.spout);
  } else {
    builder.AddSpout(
        "spout",
        [source, group_of] {
          return std::make_unique<ActionSpout>(source, group_of);
        },
        parallelism.spout);
  }

  builder
      .AddBolt(
          "compute_mf",
          [stores_of, model_config] {
            return std::make_unique<ComputeMfBolt>(stores_of, model_config);
          },
          parallelism.compute_mf)
      .ShuffleGrouping("spout");

  builder
      .AddBolt(
          "mf_storage",
          [stores_of] { return std::make_unique<MfStorageBolt>(stores_of); },
          parallelism.mf_storage)
      .FieldsGrouping("compute_mf", "user_vec", {"group", "user"})
      .FieldsGrouping("compute_mf", "video_vec", {"group", "video"});

  builder
      .AddBolt(
          "user_history",
          [stores_of, sim_config, feedback] {
            return std::make_unique<UserHistoryBolt>(stores_of, sim_config,
                                                     feedback);
          },
          parallelism.user_history)
      .FieldsGrouping("spout", {"group", "user"});

  builder
      .AddBolt(
          "get_item_pairs",
          [] { return std::make_unique<GetItemPairsBolt>(); },
          parallelism.get_item_pairs)
      .FieldsGrouping("user_history", "partners", {"group", "user"});

  builder
      .AddBolt(
          "item_pair_sim",
          [stores_of, type_resolver, sim_config] {
            return std::make_unique<ItemPairSimBolt>(stores_of, type_resolver,
                                                     sim_config);
          },
          parallelism.item_pair_sim)
      .FieldsGrouping("get_item_pairs", "pairs", {"group", "pair_key"});

  builder
      .AddBolt(
          "result_storage",
          [stores_of] { return std::make_unique<ResultStorageBolt>(stores_of); },
          parallelism.result_storage)
      .FieldsGrouping("item_pair_sim", "pair_sim", {"group", "video1"});

  return builder.Build();
}

}  // namespace rtrec
