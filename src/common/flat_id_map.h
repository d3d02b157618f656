#ifndef RTREC_COMMON_FLAT_ID_MAP_H_
#define RTREC_COMMON_FLAT_ID_MAP_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace rtrec {

/// An open-addressing map from a u64 id to a nonzero u32, sized for a
/// known bound on its keys: linear probing at load at most 1/2, and
/// backward-shift deletion, so there are no tombstones and a probe ends
/// at the first empty slot. A value of 0 marks an empty slot, so every
/// id is a key; callers store indices as index + 1 and counts as
/// themselves. Reset reuses the slot array, so a map that is reset per
/// request allocates only when a request needs more slots than any
/// before it. Not thread-safe.
class FlatIdMap {
 public:
  /// Empties the map and sizes it for at most `max_keys` keys.
  void Reset(std::size_t max_keys) {
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(16, 2 * max_keys));
    if (slots_.size() < capacity) slots_.resize(capacity);
    std::fill_n(slots_.begin(), capacity, Slot{});
    mask_ = capacity - 1;
    max_keys_ = capacity / 2;
    size_ = 0;
  }

  /// The value of `id`, or nullptr when absent.
  std::uint32_t* Find(std::uint64_t id) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = Home(id);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.value == 0) return nullptr;
      if (slot.id == id) return &slot.value;
    }
  }

  /// The value of `id`, inserting it with value 0 when absent; the
  /// caller then stores a nonzero value in it.
  std::uint32_t& FindOrInsert(std::uint64_t id) {
    assert(!slots_.empty());
    for (std::size_t i = Home(id);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.value == 0) {
        assert(size_ < max_keys_ && "more keys than Reset allowed");
        ++size_;
        slot.id = id;
        return slot.value;
      }
      if (slot.id == id) return slot.value;
    }
  }

  /// Removes `id`, which must be present, shifting later members of its
  /// probe run back so no probe stops early.
  void Erase(std::uint64_t id) {
    std::size_t hole = Home(id);
    while (slots_[hole].id != id) {
      assert(slots_[hole].value != 0 && "Erase of an absent id");
      hole = (hole + 1) & mask_;
    }
    for (std::size_t i = (hole + 1) & mask_; slots_[i].value != 0;
         i = (i + 1) & mask_) {
      // Slot i may fill the hole unless its home lies cyclically in
      // (hole, i], where a probe for it would never pass the hole.
      const std::size_t home = Home(slots_[i].id);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Keys inserted since Reset and not erased.
  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::uint32_t value = 0;
  };

  std::size_t Home(std::uint64_t id) const { return MixHash64(id) & mask_; }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t max_keys_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rtrec

#endif  // RTREC_COMMON_FLAT_ID_MAP_H_
