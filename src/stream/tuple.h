#ifndef RTREC_STREAM_TUPLE_H_
#define RTREC_STREAM_TUPLE_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace rtrec::stream {

/// A single field value flowing through the topology. The variant covers
/// everything the recommendation pipeline carries: ids and action codes
/// (int64), weights and similarities (double), latent vectors shipped
/// from ComputeMF to MFStorage (vector<float>), and the co-watch partners
/// UserHistory hands to GetItemPairs (vector<int64>).
using Value = std::variant<std::monostate, std::int64_t, double,
                           std::vector<float>, std::vector<std::int64_t>>;

/// Most fields a schema (and so a tuple) may have. Tuples store their
/// values inline, so this bounds the size of every queue slot; the
/// widest pipeline stream (the action) has 5.
inline constexpr std::size_t kMaxTupleFields = 5;

/// Stable hash of a Value, used by fields grouping to route tuples with
/// equal keys to the same task.
std::uint64_t HashValue(const Value& v);

/// HashValue of the null (monostate) Value; missing key fields hash so.
inline constexpr std::uint64_t kNullValueHash = 0x9E3779B9ull;

/// Render a Value for logs and tests.
std::string ValueToString(const Value& v);

/// The field layout of a stream, shared by every tuple on it (Storm's
/// declareOutputFields). Immutable after construction. Tuples refer to
/// their schema by plain pointer, so a schema must outlive every tuple
/// built on it: stream schemas are declared once, as never-destroyed
/// function-local statics. More than kMaxTupleFields names aborts.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> field_names);
  Schema(std::initializer_list<const char*> field_names);

  /// Index of `name`, or -1 if the schema has no such field.
  int IndexOf(const std::string& name) const;

  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
};

/// One data tuple: a schema pointer plus up to kMaxTupleFields positional
/// values stored inline, so building, moving and queueing a tuple never
/// touches the heap (only vector payloads own memory).
/// Copyable; values are value-semantic so a tuple can be fanned out to
/// several consumers safely.
class Tuple {
 public:
  Tuple() = default;

  /// Builds a tuple over `schema` by constructing each value in place,
  /// so a moved-in vector is never copied. More than kMaxTupleFields
  /// values does not compile.
  template <typename... Vs>
    requires(sizeof...(Vs) <= kMaxTupleFields)
  explicit Tuple(const Schema* schema, Vs&&... values)
      : schema_(schema),
        size_(sizeof...(Vs)),
        values_{Value(std::forward<Vs>(values))...} {
    assert(schema_ == nullptr || schema_->size() == sizeof...(Vs));
  }

  /// Value by position. Requires index < size().
  const Value& Get(std::size_t index) const { return values_[index]; }

  /// The value at `index` if it exists and holds a T, else nullptr — the
  /// hot-path accessor for bolts that know their stream's layout.
  template <typename T>
  const T* GetIf(std::size_t index) const {
    return index < size_ ? std::get_if<T>(&values_[index]) : nullptr;
  }

  std::size_t size() const { return size_; }
  const Schema* schema() const { return schema_; }
  std::span<const Value> values() const { return {values_.data(), size_}; }

  /// "(a=1, b=2.5)" rendering for diagnostics.
  std::string ToString() const;

 private:
  const Schema* schema_ = nullptr;
  std::size_t size_ = 0;
  // Slots at and past size_ hold monostate.
  std::array<Value, kMaxTupleFields> values_;
};

}  // namespace rtrec::stream

#endif  // RTREC_STREAM_TUPLE_H_
