#include "stream/grouping.h"

#include <cassert>

#include "common/types.h"

namespace rtrec::stream {

GroupingRouter::GroupingRouter(Grouping grouping,
                               std::size_t num_consumer_tasks)
    : grouping_(std::move(grouping)), num_consumer_tasks_(num_consumer_tasks) {
  assert(num_consumer_tasks_ > 0);
  if (grouping_.type == GroupingType::kFields) {
    assert(!grouping_.fields.empty() && "fields grouping requires keys");
  }
  key_indices_.assign(grouping_.fields.size(), -1);
}

std::size_t GroupingRouter::Route(const Tuple& tuple) {
  if (grouping_.type == GroupingType::kShuffle) {
    const std::size_t task = round_robin_;
    round_robin_ = (round_robin_ + 1) % num_consumer_tasks_;
    return task;
  }
  if (tuple.schema() != key_schema_) {
    key_schema_ = tuple.schema();
    for (std::size_t k = 0; k < grouping_.fields.size(); ++k) {
      key_indices_[k] = key_schema_ == nullptr
                            ? -1
                            : key_schema_->IndexOf(grouping_.fields[k]);
    }
  }
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const int index : key_indices_) {
    const std::size_t i = static_cast<std::size_t>(index);
    const std::uint64_t fh = index < 0 || i >= tuple.size()
                                 ? kNullValueHash
                                 : HashValue(tuple.Get(i));
    h = MixHash64(h ^ fh);
  }
  return static_cast<std::size_t>(h % num_consumer_tasks_);
}

}  // namespace rtrec::stream
