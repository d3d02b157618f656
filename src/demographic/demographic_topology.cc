#include "demographic/demographic_topology.h"

#include <string>
#include <utility>

#include "common/lru_cache.h"
#include "core/implicit_feedback.h"
#include "core/online_mf.h"

namespace rtrec {

namespace demographic_schema {

// Never destroyed, like pipeline_schema's: tuples hold plain pointers.
const stream::Schema* GroupedAction() {
  static const stream::Schema* schema = new stream::Schema{
      "group", "user", "video", "action", "value", "time"};
  return schema;
}

const stream::Schema* GroupedUserVec() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "user", "vec", "bias"};
  return schema;
}

const stream::Schema* GroupedVideoVec() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "video", "vec", "bias"};
  return schema;
}

const stream::Schema* GroupedPartners() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "user", "video", "time", "partners"};
  return schema;
}

const stream::Schema* GroupedPair() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "pair_key", "video1", "video2", "time"};
  return schema;
}

const stream::Schema* GroupedPairSim() {
  static const stream::Schema* schema =
      new stream::Schema{"group", "video1", "video2", "sim", "time"};
  return schema;
}

}  // namespace demographic_schema

namespace {

// Field positions within the demographic_schema layouts. Every layout
// leads with "group"; bolts read by position after checking the schema.
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

/// Decodes a GroupedAction tuple; false for any other schema, a missing
/// or mistyped field, or an out-of-range action code.
bool ReadGroupedAction(const stream::Tuple& tuple, GroupId* group,
                       UserAction* out) {
  if (tuple.schema() != demographic_schema::GroupedAction() ||
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

/// Spout: pulls actions and stamps the user's demographic group.
class GroupingActionSpout : public stream::Spout {
 public:
  GroupingActionSpout(std::shared_ptr<ActionSource> source,
                      const DemographicGrouper* grouper)
      : source_(std::move(source)), grouper_(grouper) {}

  bool Next(stream::OutputCollector& collector) override {
    std::optional<UserAction> action = source_->Next();
    if (!action.has_value()) return false;
    const GroupId group = grouper_->GroupOf(action->user);
    collector.Emit(stream::Tuple(
        demographic_schema::GroupedAction(), GroupField(group),
        static_cast<std::int64_t>(action->user),
        static_cast<std::int64_t>(action->video),
        static_cast<std::int64_t>(action->type), action->view_fraction,
        action->time));
    return true;
  }

 private:
  std::shared_ptr<ActionSource> source_;
  const DemographicGrouper* grouper_;
};

/// ComputeMF within the action's group: reads/initializes vectors in the
/// group's FactorStore and ships the new vectors keyed by (group, id).
class GroupComputeMfBolt : public stream::Bolt {
 public:
  GroupComputeMfBolt(GroupStoreRegistry* stores, MfModelConfig config)
      : stores_(stores), config_(std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = 0;
    UserAction action;
    if (!ReadGroupedAction(tuple, &group, &action)) return;
    const double confidence = ActionConfidence(action, config_.feedback);

    GroupStores& stores = stores_->GetOrCreate(group);
    double rating = 0.0, eta = 0.0;
    ResolveUpdateStep(config_, confidence, &rating, &eta);
    if (rating <= 0.0) return;

    FactorEntry user = stores.factors->GetOrInitUser(action.user);
    FactorEntry video = stores.factors->GetOrInitVideo(action.video);
    const double mean =
        config_.use_global_mean ? stores.factors->GlobalMean() : 0.0;
    OnlineMf::ApplySgdStep(user, video, rating, eta, config_.lambda, mean);
    stores.factors->ObserveRating(rating);

    collector.EmitTo(
        "user_vec",
        stream::Tuple(demographic_schema::GroupedUserVec(), GroupField(group),
                      static_cast<std::int64_t>(action.user),
                      std::move(user.vec), static_cast<double>(user.bias)));
    collector.EmitTo(
        "video_vec",
        stream::Tuple(demographic_schema::GroupedVideoVec(), GroupField(group),
                      static_cast<std::int64_t>(action.video),
                      std::move(video.vec), static_cast<double>(video.bias)));
  }

 private:
  GroupStoreRegistry* stores_;
  MfModelConfig config_;
};

class GroupMfStorageBolt : public stream::Bolt {
 public:
  explicit GroupMfStorageBolt(GroupStoreRegistry* stores) : stores_(stores) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    const bool is_user =
        tuple.schema() == demographic_schema::GroupedUserVec();
    if (!is_user && tuple.schema() != demographic_schema::GroupedVideoVec()) {
      return;
    }
    GroupId group = 0;
    const auto* id = tuple.GetIf<std::int64_t>(kVecId);
    const auto* vec = tuple.GetIf<std::vector<float>>(kVec);
    const auto* bias = tuple.GetIf<double>(kVecBias);
    if (!ReadGroup(tuple, &group) || id == nullptr || vec == nullptr ||
        bias == nullptr) {
      return;
    }
    FactorEntry entry{*vec, static_cast<float>(*bias)};
    GroupStores& stores = stores_->GetOrCreate(group);
    if (is_user) {
      stores.factors->PutUser(static_cast<UserId>(*id), std::move(entry));
    } else {
      stores.factors->PutVideo(static_cast<VideoId>(*id), std::move(entry));
    }
  }

 private:
  GroupStoreRegistry* stores_;
};

/// UserHistory within the group: the single writer of a user's group
/// history. Reads the partners before appending, then forwards every
/// action with them (see UserHistoryBolt in core/topology_factory.cc).
class GroupUserHistoryBolt : public stream::Bolt {
 public:
  GroupUserHistoryBolt(GroupStoreRegistry* stores, SimilarityConfig config,
                       FeedbackConfig feedback)
      : stores_(stores), config_(std::move(config)), feedback_(feedback) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = 0;
    UserAction action;
    if (!ReadGroupedAction(tuple, &group, &action)) return;
    const double confidence = ActionConfidence(action, feedback_);
    GroupStores& stores = stores_->GetOrCreate(group);
    std::vector<std::int64_t> partners;
    if (confidence >= config_.min_confidence) {
      for (const HistoryEntry& partner : stores.history->GetRecent(
               action.user, config_.max_pairs_per_action)) {
        if (partner.video == action.video) continue;
        partners.push_back(static_cast<std::int64_t>(partner.video));
      }
    }
    if (confidence > 0.0) {
      stores.history->Append(
          action.user, HistoryEntry{action.video, confidence, action.time});
    }
    collector.EmitTo(
        "partners",
        stream::Tuple(demographic_schema::GroupedPartners(),
                      GroupField(group),
                      static_cast<std::int64_t>(action.user),
                      static_cast<std::int64_t>(action.video), action.time,
                      std::move(partners)));
  }

 private:
  GroupStoreRegistry* stores_;
  SimilarityConfig config_;
  FeedbackConfig feedback_;
};

class GroupGetItemPairsBolt : public stream::Bolt {
 public:
  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    GroupId group = 0;
    if (tuple.schema() != demographic_schema::GroupedPartners() ||
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
          stream::Tuple(demographic_schema::GroupedPair(), GroupField(group),
                        PairKey(VideoPair(static_cast<VideoId>(*video),
                                          static_cast<VideoId>(partner))),
                        *video, partner, *time));
    }
  }
};

class GroupItemPairSimBolt : public stream::Bolt {
 public:
  GroupItemPairSimBolt(GroupStoreRegistry* stores,
                       VideoTypeResolver type_resolver,
                       SimilarityConfig config)
      : stores_(stores),
        type_resolver_(std::move(type_resolver)),
        config_(std::move(config)) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    if (tuple.schema() != demographic_schema::GroupedPair()) return;
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
    GroupStores& stores = stores_->GetOrCreate(group);
    // Within-group similarity: the group's own y_i vectors (Eq. 9).
    const FactorEntry ya = stores.factors->GetOrInitVideo(a);
    const FactorEntry yb = stores.factors->GetOrInitVideo(b);
    const double s1 = CfSimilarity(ya.vec, yb.vec);
    const double s2 = TypeSimilarity(type_resolver_(a), type_resolver_(b));
    const double fused = FuseSimilarity(s1, s2, config_.beta);
    collector.EmitTo(
        "pair_sim",
        stream::Tuple(demographic_schema::GroupedPairSim(), GroupField(group),
                      static_cast<std::int64_t>(a),
                      static_cast<std::int64_t>(b), fused, *time));
  }

 private:
  GroupStoreRegistry* stores_;
  VideoTypeResolver type_resolver_;
  SimilarityConfig config_;
};

class GroupResultStorageBolt : public stream::Bolt {
 public:
  explicit GroupResultStorageBolt(GroupStoreRegistry* stores)
      : stores_(stores) {}

  void Process(const stream::Tuple& tuple,
               stream::OutputCollector& collector) override {
    (void)collector;
    if (tuple.schema() != demographic_schema::GroupedPairSim()) return;
    GroupId group = 0;
    const auto* v1 = tuple.GetIf<std::int64_t>(kSimVideo1);
    const auto* v2 = tuple.GetIf<std::int64_t>(kSimVideo2);
    const auto* sim = tuple.GetIf<double>(kSim);
    const auto* time = tuple.GetIf<std::int64_t>(kSimTime);
    if (!ReadGroup(tuple, &group) || v1 == nullptr || v2 == nullptr ||
        sim == nullptr || time == nullptr) {
      return;
    }
    stores_->GetOrCreate(group).sim_table->Update(
        static_cast<VideoId>(*v1), static_cast<VideoId>(*v2), *sim, *time);
  }

 private:
  GroupStoreRegistry* stores_;
};

}  // namespace

StatusOr<stream::TopologySpec> BuildDemographicTopology(
    std::shared_ptr<ActionSource> source,
    const DemographicPipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (source == nullptr) return Status::InvalidArgument("null action source");
  if (deps.stores == nullptr || deps.grouper == nullptr ||
      deps.type_resolver == nullptr) {
    return Status::InvalidArgument("incomplete demographic pipeline deps");
  }
  RTREC_RETURN_IF_ERROR(deps.model_config.Validate());
  RTREC_RETURN_IF_ERROR(deps.sim_config.Validate());
  if (deps.stores->options().num_factors != deps.model_config.num_factors) {
    return Status::InvalidArgument(
        "registry dimensionality does not match the model config");
  }

  GroupStoreRegistry* stores = deps.stores;
  const DemographicGrouper* grouper = deps.grouper;
  VideoTypeResolver type_resolver = deps.type_resolver;
  MfModelConfig model_config = deps.model_config;
  SimilarityConfig sim_config = deps.sim_config;
  FeedbackConfig feedback = model_config.feedback;

  stream::TopologyBuilder builder;
  builder.AddSpout(
      "spout",
      [source, grouper] {
        return std::make_unique<GroupingActionSpout>(source, grouper);
      },
      parallelism.spout);

  builder
      .AddBolt(
          "compute_mf",
          [stores, model_config] {
            return std::make_unique<GroupComputeMfBolt>(stores, model_config);
          },
          parallelism.compute_mf)
      // Keyed by (group, user): a user belongs to one group, so the
      // read-compute step for a user is serialized per group model.
      .FieldsGrouping("spout", {"group", "user"});

  builder
      .AddBolt(
          "mf_storage",
          [stores] { return std::make_unique<GroupMfStorageBolt>(stores); },
          parallelism.mf_storage)
      .FieldsGrouping("compute_mf", "user_vec", {"group", "user"})
      .FieldsGrouping("compute_mf", "video_vec", {"group", "video"});

  builder
      .AddBolt(
          "user_history",
          [stores, sim_config, feedback] {
            return std::make_unique<GroupUserHistoryBolt>(stores, sim_config,
                                                          feedback);
          },
          parallelism.user_history)
      .FieldsGrouping("spout", {"group", "user"});

  builder
      .AddBolt(
          "get_item_pairs",
          [] { return std::make_unique<GroupGetItemPairsBolt>(); },
          parallelism.get_item_pairs)
      .FieldsGrouping("user_history", "partners", {"group", "user"});

  builder
      .AddBolt(
          "item_pair_sim",
          [stores, type_resolver, sim_config] {
            return std::make_unique<GroupItemPairSimBolt>(
                stores, type_resolver, sim_config);
          },
          parallelism.item_pair_sim)
      .FieldsGrouping("get_item_pairs", "pairs", {"group", "pair_key"});

  builder
      .AddBolt(
          "result_storage",
          [stores] {
            return std::make_unique<GroupResultStorageBolt>(stores);
          },
          parallelism.result_storage)
      .FieldsGrouping("item_pair_sim", "pair_sim", {"group", "video1"});

  return builder.Build();
}

}  // namespace rtrec
