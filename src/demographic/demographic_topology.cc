#include "demographic/demographic_topology.h"

namespace rtrec {

StatusOr<stream::TopologySpec> BuildDemographicTopology(
    std::shared_ptr<ActionSource> source,
    const DemographicPipelineDeps& deps,
    const PipelineParallelism& parallelism) {
  if (deps.stores == nullptr || deps.grouper == nullptr) {
    return Status::InvalidArgument("incomplete demographic pipeline deps");
  }
  if (deps.stores->options().num_factors != deps.model_config.num_factors) {
    return Status::InvalidArgument(
        "registry dimensionality does not match the model config");
  }
  GroupStoreRegistry* registry = deps.stores;
  const DemographicGrouper* grouper = deps.grouper;
  GroupedPipelineDeps grouped;
  grouped.group_of = [grouper](UserId user) {
    return grouper->GroupOf(user);
  };
  grouped.stores_of = [registry](GroupId group) {
    GroupStores& stores = registry->GetOrCreate(group);
    return PipelineStores{stores.factors.get(), stores.history.get(),
                          stores.sim_table.get()};
  };
  grouped.type_resolver = deps.type_resolver;
  grouped.model_config = deps.model_config;
  grouped.sim_config = deps.sim_config;
  return BuildGroupedTopology(std::move(source), grouped, parallelism);
}

}  // namespace rtrec
