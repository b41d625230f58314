// Typed group keys for the paned windowed aggregate. A GroupKey names one
// group by the identity CanonicalKeyString defines, without building that
// string per tuple: a key whose canonical string is an int64's decimal
// rendering is held as the int64, any other key as its canonical string.
// So int 5, double 5.0 and string "5" are one key, while "05", "-0", a
// double >= 1e17 ("1e+17") and a distribution's rendering stay strings.
//
// GroupKeyIndex is the flat hash index the paned operator keeps per pane
// (and once more for merging a window's panes): it maps keys to positions
// of a vector the caller owns and appends to in first-seen order.

#ifndef USP_STREAM_GROUP_KEY_H_
#define USP_STREAM_GROUP_KEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/value.h"

namespace usp {
namespace stream {

/// \brief One group's identity: equal iff the canonical strings are equal.
class GroupKey {
 public:
  /// The group of a group-by attribute value: equal to every key whose
  /// canonical string is CanonicalKeyString(v).
  static GroupKey Of(const Value& v);

  /// The key whose canonical string is `canonical` (a GroupBy(fn) result
  /// or a CanonicalKeyString). An int64's decimal rendering becomes that
  /// int64.
  GroupKey(std::string canonical);  // NOLINT(runtime/explicit)
  explicit GroupKey(int64_t v) : int_(v), is_int_(true) {}

  bool operator==(const GroupKey& other) const {
    return is_int_ == other.is_int_ &&
           (is_int_ ? int_ == other.int_ : str_ == other.str_);
  }

  uint64_t Hash() const;
  /// The canonical string: the key column of the group's output rows.
  std::string ToString() const;

 private:
  std::string str_;  // canonical string; empty while is_int_
  int64_t int_ = 0;
  bool is_int_ = false;
};

/// \brief Open-addressing index from GroupKey to positions 0..size()-1 of
/// a caller-owned vector, assigned in insertion order.
///
/// Linear probing over a power-of-two table of (position, hash) slots kept
/// at most half full; Clear() empties it and keeps the table.
class GroupKeyIndex {
 public:
  /// Position of the key equal to `key` (`hash` == key.Hash()). When
  /// absent, records it at position size() and returns that; the caller
  /// then stores the key there. `key_at(p)` returns the key at an
  /// already-recorded position p.
  template <typename KeyAt>
  uint32_t FindOrAdd(const GroupKey& key, uint64_t hash,
                     const KeyAt& key_at) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = static_cast<uint32_t>(hash);
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.pos == kEmpty) {
        slot = {size_, tag};
        return size_++;
      }
      if (slot.tag == tag && key_at(slot.pos) == key) return slot.pos;
    }
  }

  size_t size() const { return size_; }
  void Clear();

 private:
  struct Slot {
    uint32_t pos;
    uint32_t tag;  // low 32 bits of the key hash
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  void Grow();

  std::vector<Slot> slots_;
  uint32_t size_ = 0;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_GROUP_KEY_H_
