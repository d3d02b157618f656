#ifndef RTREC_STREAM_GROUPING_H_
#define RTREC_STREAM_GROUPING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/tuple.h"

namespace rtrec::stream {

/// How a producer's tuples are distributed over a consumer's tasks —
/// Storm's stream groupings (Section 5.1 of the paper relies on fields
/// grouping to make per-key vector updates single-writer).
enum class GroupingType {
  /// Round-robin over consumer tasks (Storm's shuffle grouping; we use
  /// per-producer-task round-robin, which is deterministic).
  kShuffle,
  /// Hash of the named fields picks the task: equal keys always reach the
  /// same task.
  kFields,
};

/// A grouping declaration: the type plus the key fields (for kFields).
struct Grouping {
  GroupingType type = GroupingType::kShuffle;
  std::vector<std::string> fields;

  static Grouping Shuffle() { return {GroupingType::kShuffle, {}}; }
  static Grouping Fields(std::vector<std::string> fields) {
    return {GroupingType::kFields, std::move(fields)};
  }
};

/// Routes tuples for one (producer → consumer) edge. Stateless except for
/// the round-robin cursor, so each producer task owns one router instance.
class GroupingRouter {
 public:
  GroupingRouter(Grouping grouping, std::size_t num_consumer_tasks);

  /// Destination consumer-task index for `tuple`.
  ///
  /// For kFields the route is a pure function of the key fields, which is
  /// the property making vector writes conflict-free in the MFStorage
  /// bolt. Missing key fields hash as null (route to a stable task) so a
  /// malformed tuple cannot crash the pipeline. The key fields' positions
  /// are resolved once per schema and cached, so the steady state does
  /// no name lookup.
  std::size_t Route(const Tuple& tuple);

  std::size_t num_consumer_tasks() const { return num_consumer_tasks_; }
  const Grouping& grouping() const { return grouping_; }

 private:
  Grouping grouping_;
  std::size_t num_consumer_tasks_;
  std::size_t round_robin_ = 0;
  // kFields: positions of grouping_.fields in `key_schema_` (-1 where the
  // schema lacks the field). Null schema resolves every key as missing.
  const Schema* key_schema_ = nullptr;
  std::vector<int> key_indices_;
};

}  // namespace rtrec::stream

#endif  // RTREC_STREAM_GROUPING_H_
