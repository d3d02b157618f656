#include "core/topology_factory.h"

#include <string>
#include <utility>

#include "common/lru_cache.h"
#include "core/implicit_feedback.h"
#include "core/online_mf.h"
#include "core/sim_table.h"

namespace rtrec {

namespace pipeline_schema {

// Never destroyed: tuples refer to their schema by plain pointer, so no
// tuple alive during static destruction may outlive its schema.
const stream::Schema* Action() {
  static const stream::Schema* schema = new stream::Schema{
      "user", "video", "action", "value", "time"};
  return schema;
}

const stream::Schema* UserVec() {
  static const stream::Schema* schema =
      new stream::Schema{"user", "vec", "bias"};
  return schema;
}

const stream::Schema* VideoVec() {
  static const stream::Schema* schema =
      new stream::Schema{"video", "vec", "bias"};
  return schema;
}

const stream::Schema* Partners() {
  static const stream::Schema* schema =
      new stream::Schema{"user", "video", "time", "partners"};
  return schema;
}

const stream::Schema* Pair() {
  static const stream::Schema* schema =
      new stream::Schema{"pair_key", "video1", "video2", "time"};
  return schema;
}

const stream::Schema* PairSim() {
  static const stream::Schema* schema =
      new stream::Schema{"video1", "video2", "sim", "time"};
  return schema;
}

}  // namespace pipeline_schema

namespace {

// Field positions within the pipeline_schema layouts; bolts read by
// position after checking the schema.
enum ActionField : std::size_t { kUser, kVideo, kAction, kValue, kTime };
enum VecField : std::size_t { kVecId, kVec, kVecBias };
enum PartnersField : std::size_t {
  kPartnersUser,
  kPartnersVideo,
  kPartnersTime,
  kPartners
};
enum PairField : std::size_t { kPairKey, kPairVideo1, kPairVideo2, kPairTime };
enum PairSimField : std::size_t { kSimVideo1, kSimVideo2, kSim, kSimTime };

/// Decodes an Action tuple; false for any other schema, a missing or
/// mistyped field, or an out-of-range action code.
bool ReadAction(const stream::Tuple& tuple, UserAction* out) {
  if (tuple.schema() != pipeline_schema::Action()) return false;
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

stream::Tuple ActionToTuple(const UserAction& action) {
  return stream::Tuple(pipeline_schema::Action(),
                       static_cast<std::int64_t>(action.user),
                       static_cast<std::int64_t>(action.video),
                       static_cast<std::int64_t>(action.type),
                       action.view_fraction, action.time);
}

StatusOr<UserAction> TupleToAction(const stream::Tuple& tuple) {
  UserAction out;
  if (!ReadAction(tuple, &out)) {
    return Status::InvalidArgument("not a well-formed action tuple");
  }
  return out;
}

namespace {

/// Parses the raw message, filters unqualified tuples and forwards — the
/// spout of Fig. 2. Pulls from a shared ActionSource.
class ActionSpout : public stream::Spout {
 public:
  explicit ActionSpout(std::shared_ptr<ActionSource> source)
      : source_(std::move(source)) {}

  bool Next(stream::OutputCollector& collector) override {
    std::optional<UserAction> action = source_->Next();
    if (!action.has_value()) return false;
    collector.Emit(ActionToTuple(*action));
    return true;
  }

 private:
  std::shared_ptr<ActionSource> source_;
};

/// ComputeMF bolt: Algorithm 1's read-compute step (OnlineMf::ComputeStep,
/// as the engine runs it), shipping the *new* vectors to MFStorage keyed
/// by id. It never writes the vectors itself — the fields-grouped
/// MFStorage tasks are the single writers per key.
class ComputeMfBolt : public stream::Bolt {
 public:
  ComputeMfBolt(FactorStore* factors, MfModelConfig config)
      : factors_(factors), config_(std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    UserAction action;
    // Unqualified tuple; spout-level filtering.
    if (!ReadAction(tuple, &action)) return;
    FactorEntry user;
    FactorEntry video;
    if (!OnlineMf::ComputeStep(*factors_, config_, /*hook=*/nullptr, action,
                               &user, &video)
             .updated) {
      return;  // Impressions do not update the model.
    }
    collector.EmitTo(
        "user_vec",
        stream::Tuple(pipeline_schema::UserVec(),
                      static_cast<std::int64_t>(action.user),
                      std::move(user.vec), static_cast<double>(user.bias)));
    collector.EmitTo(
        "video_vec",
        stream::Tuple(pipeline_schema::VideoVec(),
                      static_cast<std::int64_t>(action.video),
                      std::move(video.vec), static_cast<double>(video.bias)));
  }

 private:
  FactorStore* factors_;
  MfModelConfig config_;
};

/// MFStorage bolt: writes new vectors to the KV store. Fields grouping by
/// id guarantees a single writer per user/video, so writes are atomic
/// without locking coordination across tasks (Section 5.1).
class MfStorageBolt : public stream::Bolt {
 public:
  explicit MfStorageBolt(FactorStore* factors) : factors_(factors) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    const bool is_user = tuple.schema() == pipeline_schema::UserVec();
    if (!is_user && tuple.schema() != pipeline_schema::VideoVec()) return;
    const auto* id = tuple.GetIf<std::int64_t>(kVecId);
    const auto* vec = tuple.GetIf<std::vector<float>>(kVec);
    const auto* bias = tuple.GetIf<double>(kVecBias);
    if (id == nullptr || vec == nullptr || bias == nullptr) return;
    // Written straight from the tuple's vector: no copy.
    if (is_user) {
      factors_->PutUser(static_cast<UserId>(*id), *vec,
                        static_cast<float>(*bias));
    } else {
      factors_->PutVideo(static_cast<VideoId>(*id), *vec,
                         static_cast<float>(*bias));
    }
  }

 private:
  FactorStore* factors_;
};

/// UserHistory bolt: records behaviour histories, fields-grouped by user,
/// so each task is the single writer of its users' histories. It takes
/// each action's partners and appends it in one step
/// (ReadPartnersThenAppend, exactly as SimTableUpdater::OnAction does),
/// and forwards every action with its partners to GetItemPairs.
class UserHistoryBolt : public stream::Bolt {
 public:
  UserHistoryBolt(HistoryStore* history, SimilarityConfig config,
                  FeedbackConfig feedback)
      : history_(history), config_(std::move(config)), feedback_(feedback) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    UserAction action;
    if (!ReadAction(tuple, &action)) return;
    std::vector<std::int64_t> partners;
    ReadPartnersThenAppend(*history_, action,
                           ActionConfidence(action, feedback_), config_,
                           partners);
    collector.EmitTo(
        "partners",
        stream::Tuple(pipeline_schema::Partners(),
                      static_cast<std::int64_t>(action.user),
                      static_cast<std::int64_t>(action.video), action.time,
                      std::move(partners)));
  }

 private:
  HistoryStore* history_;
  SimilarityConfig config_;
  FeedbackConfig feedback_;
};

/// GetItemPairs bolt: joins an action with the partners UserHistory read
/// for it and emits one tuple per (video1, video2) pair, keyed by the
/// normalized pair key so equal pairs co-locate downstream (enabling the
/// combiner/cache optimizations of Section 5.1).
class GetItemPairsBolt : public stream::Bolt {
 public:
  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    if (tuple.schema() != pipeline_schema::Partners()) return;
    const auto* video = tuple.GetIf<std::int64_t>(kPartnersVideo);
    const auto* time = tuple.GetIf<std::int64_t>(kPartnersTime);
    const auto* partners =
        tuple.GetIf<std::vector<std::int64_t>>(kPartners);
    if (video == nullptr || time == nullptr || partners == nullptr) return;
    for (const std::int64_t partner : *partners) {
      collector.EmitTo(
          "pairs",
          stream::Tuple(pipeline_schema::Pair(),
                        PairKey(VideoPair(static_cast<VideoId>(*video),
                                          static_cast<VideoId>(partner))),
                        *video, partner, *time));
    }
  }
};

/// ItemPairSim bolt: the fused similarity of a pair from the current
/// latent vectors and the type system (PairSimilarity, Eq. 9, 10, 12).
///
/// Section 5.1's "cache technique": because tuples are fields-grouped by
/// pair key, every occurrence of a pair reaches the same task, so a
/// task-local LRU of recent results skips the KV-store vector fetches and
/// the similarity recomputation for hot pairs. A cached pair is reused
/// while its entry is at most kCacheTtlMillis older than the tuple.
class ItemPairSimBolt : public stream::Bolt {
 public:
  /// LRU entries per task.
  static constexpr std::size_t kCacheSize = 4096;
  /// Event-time age up to which a cached similarity is reused.
  static constexpr double kCacheTtlMillis = 60.0 * 1000.0;

  ItemPairSimBolt(FactorStore* factors, VideoTypeResolver type_resolver,
                  SimilarityConfig config)
      : factors_(factors),
        type_resolver_(std::move(type_resolver)),
        config_(std::move(config)),
        cache_(kCacheSize) {}

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
    const auto* v1 = tuple.GetIf<std::int64_t>(kPairVideo1);
    const auto* v2 = tuple.GetIf<std::int64_t>(kPairVideo2);
    const auto* time = tuple.GetIf<std::int64_t>(kPairTime);
    if (v1 == nullptr || v2 == nullptr || time == nullptr) return;
    const VideoId a = static_cast<VideoId>(*v1);
    const VideoId b = static_cast<VideoId>(*v2);

    double fused = 0.0;
    bool cached = false;
    const VideoPair key(a, b);
    if (CachedSim* entry = cache_.Get(key); entry != nullptr) {
      const double age = static_cast<double>(*time - entry->computed_at);
      if (age >= 0.0 && age <= kCacheTtlMillis) {
        fused = entry->sim;
        cached = true;
      }
    }
    if (!cached) {
      fused = PairSimilarity(*factors_, type_resolver_, config_, a, b);
      cache_.Put(key, CachedSim{fused, *time});
    }
    ++(cached ? unpublished_hits_ : unpublished_misses_);
    if (unpublished_hits_ + unpublished_misses_ >= kPublishEvery) {
      PublishCacheCounts();
    }

    collector.EmitTo(
        "pair_sim",
        stream::Tuple(pipeline_schema::PairSim(),
                      static_cast<std::int64_t>(a),
                      static_cast<std::int64_t>(b), fused, *time));
  }

 private:
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

  FactorStore* factors_;
  VideoTypeResolver type_resolver_;
  SimilarityConfig config_;
  LruCache<VideoPair, CachedSim, VideoPairHash> cache_;
  Counter* cache_hits_ = nullptr;
  Counter* cache_misses_ = nullptr;
  std::int64_t unpublished_hits_ = 0;
  std::int64_t unpublished_misses_ = 0;
};

/// ResultStorage bolt: persists the top-N similar-video lists.
class ResultStorageBolt : public stream::Bolt {
 public:
  explicit ResultStorageBolt(SimTableStore* sim_table)
      : sim_table_(sim_table) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    if (tuple.schema() != pipeline_schema::PairSim()) return;
    const auto* v1 = tuple.GetIf<std::int64_t>(kSimVideo1);
    const auto* v2 = tuple.GetIf<std::int64_t>(kSimVideo2);
    const auto* sim = tuple.GetIf<double>(kSim);
    const auto* time = tuple.GetIf<std::int64_t>(kSimTime);
    if (v1 == nullptr || v2 == nullptr || sim == nullptr || time == nullptr) {
      return;
    }
    sim_table_->Update(static_cast<VideoId>(*v1), static_cast<VideoId>(*v2),
                       *sim, *time);
  }

 private:
  SimTableStore* sim_table_;
};

}  // namespace

StatusOr<stream::TopologySpec> BuildRecommendationTopology(
    std::shared_ptr<ActionSource> source, const PipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (source == nullptr) return Status::InvalidArgument("null action source");
  if (deps.factors == nullptr || deps.history == nullptr ||
      deps.sim_table == nullptr || deps.type_resolver == nullptr) {
    return Status::InvalidArgument("incomplete pipeline deps");
  }
  RTREC_RETURN_IF_ERROR(deps.model_config.Validate());
  RTREC_RETURN_IF_ERROR(deps.sim_config.Validate());

  // Copy dependencies into the factories (executed once per task).
  FactorStore* factors = deps.factors;
  HistoryStore* history = deps.history;
  SimTableStore* sim_table = deps.sim_table;
  VideoTypeResolver type_resolver = deps.type_resolver;
  MfModelConfig model_config = deps.model_config;
  SimilarityConfig sim_config = deps.sim_config;
  FeedbackConfig feedback = model_config.feedback;

  stream::TopologyBuilder builder;
  builder.AddSpout(
      "spout", [source] { return std::make_unique<ActionSpout>(source); },
      parallelism.spout);

  builder
      .AddBolt(
          "compute_mf",
          [factors, model_config] {
            return std::make_unique<ComputeMfBolt>(factors, model_config);
          },
          parallelism.compute_mf)
      .ShuffleGrouping("spout");

  builder
      .AddBolt(
          "mf_storage",
          [factors] { return std::make_unique<MfStorageBolt>(factors); },
          parallelism.mf_storage)
      .FieldsGrouping("compute_mf", "user_vec", {"user"})
      .FieldsGrouping("compute_mf", "video_vec", {"video"});

  builder
      .AddBolt(
          "user_history",
          [history, sim_config, feedback] {
            return std::make_unique<UserHistoryBolt>(history, sim_config,
                                                     feedback);
          },
          parallelism.user_history)
      .FieldsGrouping("spout", {"user"});

  builder
      .AddBolt(
          "get_item_pairs",
          [] { return std::make_unique<GetItemPairsBolt>(); },
          parallelism.get_item_pairs)
      .FieldsGrouping("user_history", "partners", {"user"});

  builder
      .AddBolt(
          "item_pair_sim",
          [factors, type_resolver, sim_config] {
            return std::make_unique<ItemPairSimBolt>(factors, type_resolver,
                                                     sim_config);
          },
          parallelism.item_pair_sim)
      .FieldsGrouping("get_item_pairs", "pairs", {"pair_key"});

  builder
      .AddBolt(
          "result_storage",
          [sim_table] { return std::make_unique<ResultStorageBolt>(sim_table); },
          parallelism.result_storage)
      .FieldsGrouping("item_pair_sim", "pair_sim", {"video1"});

  return builder.Build();
}

}  // namespace rtrec
