#ifndef RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TOPOLOGY_H_
#define RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TOPOLOGY_H_

#include <memory>

#include "core/model_config.h"
#include "core/similarity.h"
#include "core/topology_factory.h"
#include "demographic/group_stores.h"
#include "demographic/grouper.h"

namespace rtrec {

/// The demographically-trained deployment of Section 5.2.2: the Fig. 2
/// topology (BuildGroupedTopology) where every model operation happens
/// *within the user's demographic group*. The spout stamps each action
/// with its user's group, and every bolt works on that group's stores in
/// the shared GroupStoreRegistry, so each group has its own vectors,
/// histories and similar-video tables. Unregistered users train the
/// kGlobalGroup model.
struct DemographicPipelineDeps {
  /// Per-group store registry (shared, not owned; outlives the topology).
  GroupStoreRegistry* stores = nullptr;
  /// Resolves users to demographic groups (shared, not owned).
  const DemographicGrouper* grouper = nullptr;
  VideoTypeResolver type_resolver;
  MfModelConfig model_config;
  SimilarityConfig sim_config;
};

/// Builds the demographically-partitioned Fig. 2 topology.
StatusOr<stream::TopologySpec> BuildDemographicTopology(
    std::shared_ptr<ActionSource> source,
    const DemographicPipelineDeps& deps,
    const PipelineParallelism& parallelism = {});

}  // namespace rtrec

#endif  // RTREC_DEMOGRAPHIC_DEMOGRAPHIC_TOPOLOGY_H_
