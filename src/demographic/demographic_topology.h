#ifndef RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TOPOLOGY_H_
#define RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TOPOLOGY_H_

#include <memory>

#include "core/model_config.h"
#include "core/similarity.h"
#include "core/topology_factory.h"
#include "demographic/group_stores.h"
#include "demographic/grouper.h"
#include "stream/topology_builder.h"

namespace rtrec {

/// The demographically-trained deployment of Section 5.2.2: the Fig. 2
/// topology where every model operation happens *within the user's
/// demographic group*. The spout resolves each action's group and stamps
/// it onto the tuple; from there the fields groupings carry the group:
///
///   spout ──shuffle──> compute_mf ──fields(group,user)──>  mf_storage
///                            └──────fields(group,video)────────┘
///   spout ──fields(group,user)──> user_history
///       ──fields(group,user)──> get_item_pairs
///       ──fields(group,pair_key)──> item_pair_sim
///       ──fields(group,video1)──> result_storage
///
/// Keys are (group, id) pairs, so the single-writer-per-key guarantee
/// holds per group, and every group's vectors/tables live in its own
/// stores inside the shared GroupStoreRegistry. Unregistered users train
/// the kGlobalGroup model.
struct DemographicPipelineDeps {
  /// Per-group store registry (shared, not owned; outlives the topology).
  GroupStoreRegistry* stores = nullptr;
  /// Resolves users to demographic groups (shared, not owned).
  const DemographicGrouper* grouper = nullptr;
  VideoTypeResolver type_resolver;
  MfModelConfig model_config;
  SimilarityConfig sim_config;
};

/// Field schemas of the demographic pipeline (action tuples carry a
/// leading "group" field; downstream tuples mirror the plain pipeline
/// plus "group").
namespace demographic_schema {
const stream::Schema* GroupedAction();
const stream::Schema* GroupedUserVec();
const stream::Schema* GroupedVideoVec();
const stream::Schema* GroupedPartners();
const stream::Schema* GroupedPair();
const stream::Schema* GroupedPairSim();
}  // namespace demographic_schema

/// Builds the demographically-partitioned Fig. 2 topology.
StatusOr<stream::TopologySpec> BuildDemographicTopology(
    std::shared_ptr<ActionSource> source,
    const DemographicPipelineDeps& deps,
    const PipelineParallelism& parallelism = {});

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TOPOLOGY_H_
