#include "stream/topology_builder.h"

#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace rtrec::stream {

int TopologySpec::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (components[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TopologyBuilder& TopologyBuilder::AddSpout(const std::string& name,
                                           SpoutFactory factory,
                                           std::size_t parallelism) {
  assert(factory != nullptr);
  ComponentSpec spec;
  spec.name = name;
  spec.parallelism = parallelism == 0 ? 1 : parallelism;
  spec.spout_factory = std::move(factory);
  components_.push_back(std::move(spec));
  return *this;
}

TopologyBuilder::BoltDeclarer TopologyBuilder::AddBolt(
    const std::string& name, BoltFactory factory, std::size_t parallelism) {
  assert(factory != nullptr);
  ComponentSpec spec;
  spec.name = name;
  spec.parallelism = parallelism == 0 ? 1 : parallelism;
  spec.bolt_factory = std::move(factory);
  components_.push_back(std::move(spec));
  return BoltDeclarer(this, components_.size() - 1);
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::AddEdge(
    const std::string& from, const std::string& stream, Grouping grouping) {
  EdgeSpec edge;
  edge.from_component = from;
  edge.stream = stream;
  edge.grouping = std::move(grouping);
  builder_->components_[component_index_].inputs.push_back(std::move(edge));
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::ShuffleGrouping(
    const std::string& from) {
  return AddEdge(from, kDefaultStream, Grouping::Shuffle());
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::ShuffleGrouping(
    const std::string& from, const std::string& stream) {
  return AddEdge(from, stream, Grouping::Shuffle());
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::FieldsGrouping(
    const std::string& from, std::vector<std::string> fields) {
  return AddEdge(from, kDefaultStream, Grouping::Fields(std::move(fields)));
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::FieldsGrouping(
    const std::string& from, const std::string& stream,
    std::vector<std::string> fields) {
  return AddEdge(from, stream, Grouping::Fields(std::move(fields)));
}

StatusOr<TopologySpec> TopologyBuilder::Build() const {
  // Unique names.
  std::unordered_map<std::string, std::size_t> index_by_name;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const auto& c = components_[i];
    if (!index_by_name.emplace(c.name, i).second) {
      return Status::InvalidArgument("duplicate component '" + c.name + "'");
    }
  }

  bool has_spout = false;
  for (const auto& c : components_) {
    if (c.is_spout()) {
      has_spout = true;
      if (!c.inputs.empty()) {
        return Status::InvalidArgument("spout '" + c.name + "' has inputs");
      }
    } else {
      if (c.inputs.empty()) {
        return Status::InvalidArgument("bolt '" + c.name +
                                       "' subscribes to nothing");
      }
      for (const auto& edge : c.inputs) {
        if (!index_by_name.contains(edge.from_component)) {
          return Status::InvalidArgument("bolt '" + c.name +
                                         "' subscribes to unknown component '" +
                                         edge.from_component + "'");
        }
        if (edge.from_component == c.name) {
          return Status::InvalidArgument("bolt '" + c.name +
                                         "' subscribes to itself");
        }
        if (edge.grouping.type == GroupingType::kFields &&
            edge.grouping.fields.empty()) {
          return Status::InvalidArgument(
              "fields grouping without fields on bolt '" + c.name + "'");
        }
      }
    }
  }
  if (!has_spout) return Status::InvalidArgument("topology has no spout");

  // Kahn's algorithm for a topological order; detects cycles.
  std::vector<std::size_t> in_degree(components_.size(), 0);
  std::vector<std::vector<std::size_t>> consumers(components_.size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    std::unordered_set<std::size_t> producer_set;
    for (const auto& edge : components_[i].inputs) {
      producer_set.insert(index_by_name.at(edge.from_component));
    }
    in_degree[i] = producer_set.size();
    for (std::size_t producer : producer_set) {
      consumers[producer].push_back(i);
    }
  }
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (in_degree[i] == 0) ready.push_back(i);
  }
  TopologySpec spec;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    spec.components.push_back(components_[i]);
    for (std::size_t consumer : consumers[i]) {
      if (--in_degree[consumer] == 0) ready.push_back(consumer);
    }
  }
  if (spec.components.size() != components_.size()) {
    return Status::InvalidArgument("topology contains a cycle");
  }
  return spec;
}

}  // namespace rtrec::stream
