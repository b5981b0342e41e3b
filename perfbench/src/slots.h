// The envelope window of a closed-loop client.  Each envelope id names its
// slot in the low 16 bits and counts envelopes above them.  A response is
// matched to a slot only when that slot is in flight under exactly the
// response's id, so a wrong id from the program can neither index past the
// window nor free a slot twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

class SlotTable {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  // `window` <= 65536 slots.
  explicit SlotTable(std::size_t window) : ids_(window, 0) {
    for (std::size_t i = window; i-- > 0;) free_.push_back(i);
  }

  std::size_t window() const { return ids_.size(); }
  std::size_t in_flight() const { return ids_.size() - free_.size(); }
  bool full() const { return free_.empty(); }

  // Takes a free slot (requires !full()) and returns it; `*id` is the
  // envelope id it is now in flight under.
  std::size_t acquire(std::uint64_t* id) {
    const std::size_t slot = free_.back();
    free_.pop_back();
    ids_[slot] = (next_++ << 16) | slot;
    *id = ids_[slot];
    return slot;
  }

  // Frees and returns the slot in flight under `id`, or kNone when no slot
  // is (an id out of the window, stale, or already answered).
  std::size_t release(std::uint64_t id) {
    const std::size_t slot = static_cast<std::size_t>(id & 0xffff);
    if (slot >= ids_.size() || ids_[slot] == 0 || ids_[slot] != id) {
      return kNone;
    }
    ids_[slot] = 0;
    free_.push_back(slot);
    return slot;
  }

 private:
  std::vector<std::uint64_t> ids_;  // id in flight per slot; 0 when free
  std::vector<std::size_t> free_;
  std::uint64_t next_ = 1;
};

}  // namespace perfbench
