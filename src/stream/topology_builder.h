#ifndef RTREC_STREAM_TOPOLOGY_BUILDER_H_
#define RTREC_STREAM_TOPOLOGY_BUILDER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/bolt.h"
#include "stream/grouping.h"

namespace rtrec::stream {

/// One subscription of a bolt to a producer's stream.
struct EdgeSpec {
  std::string from_component;
  std::string stream = kDefaultStream;
  Grouping grouping;
};

/// Declaration of one component (spout or bolt) in a topology.
struct ComponentSpec {
  std::string name;
  std::size_t parallelism = 1;
  SpoutFactory spout_factory;  // Exactly one of the two factories is set.
  BoltFactory bolt_factory;
  std::vector<EdgeSpec> inputs;  // Empty for spouts.

  bool is_spout() const { return spout_factory != nullptr; }
};

/// A validated topology description: components in topological order
/// (producers before consumers).
struct TopologySpec {
  std::vector<ComponentSpec> components;

  /// Index of `name` in `components`, or -1.
  int IndexOf(const std::string& name) const;
};

/// Fluent builder mirroring Storm's TopologyBuilder:
///
///   TopologyBuilder builder;
///   builder.AddSpout("actions", MakeActionSpout, 2);
///   builder.AddBolt("compute_mf", MakeComputeMf, 4)
///       .ShuffleGrouping("actions");
///   builder.AddBolt("mf_storage", MakeMfStorage, 4)
///       .FieldsGrouping("compute_mf", "user_vec", {"user"})
///       .FieldsGrouping("compute_mf", "video_vec", {"video"});
///   StatusOr<TopologySpec> spec = builder.Build();
class TopologyBuilder {
 public:
  /// Declares grouping subscriptions for one bolt.
  class BoltDeclarer {
   public:
    BoltDeclarer(TopologyBuilder* builder, std::size_t component_index)
        : builder_(builder), component_index_(component_index) {}

    /// Subscribes to `from`'s default stream with shuffle grouping.
    BoltDeclarer& ShuffleGrouping(const std::string& from);
    /// Subscribes to `from`'s named stream with shuffle grouping.
    BoltDeclarer& ShuffleGrouping(const std::string& from,
                                  const std::string& stream);
    /// Subscribes to `from`'s default stream keyed by `fields`.
    BoltDeclarer& FieldsGrouping(const std::string& from,
                                 std::vector<std::string> fields);
    /// Subscribes to `from`'s named stream keyed by `fields`.
    BoltDeclarer& FieldsGrouping(const std::string& from,
                                 const std::string& stream,
                                 std::vector<std::string> fields);

   private:
    BoltDeclarer& AddEdge(const std::string& from, const std::string& stream,
                          Grouping grouping);

    TopologyBuilder* builder_;
    std::size_t component_index_;
  };

  /// Declares a spout. Names must be unique; parallelism >= 1.
  TopologyBuilder& AddSpout(const std::string& name, SpoutFactory factory,
                            std::size_t parallelism = 1);

  /// Declares a bolt and returns a declarer for its subscriptions.
  BoltDeclarer AddBolt(const std::string& name, BoltFactory factory,
                       std::size_t parallelism = 1);

  /// Validates the graph (unique names, known producers, at least one
  /// spout, every bolt subscribed, acyclic) and returns components in
  /// topological order.
  StatusOr<TopologySpec> Build() const;

 private:
  std::vector<ComponentSpec> components_;
};

}  // namespace rtrec::stream

#endif  // RTREC_STREAM_TOPOLOGY_BUILDER_H_
