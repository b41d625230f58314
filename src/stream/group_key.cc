#include "stream/group_key.h"

#include <charconv>
#include <cmath>
#include <functional>
#include <string_view>

namespace usp {
namespace stream {

namespace {

/// True iff `s` is exactly std::to_string of some int64 (no sign but a
/// leading '-', no leading zero, no "-0", in range); stores it in `out`.
bool ParseCanonicalInt(std::string_view s, int64_t* out) {
  const size_t first_digit = !s.empty() && s[0] == '-' ? 1 : 0;
  if (s.size() == first_digit || s.size() > 20) return false;
  if (s[first_digit] == '0' && (first_digit == 1 || s.size() > 1)) {
    return false;
  }
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

}  // namespace

GroupKey GroupKey::Of(const Value& v) {
  if (v.is_int()) return GroupKey(v.AsInt());
  if (v.is_double()) {
    // "%.17g" prints an integral double below 1e17 in magnitude as its
    // plain digits, so such a double is the int64 of the same value; -0.0
    // prints "-0", which no int64 renders as.
    const double d = v.AsDouble();
    if (std::fabs(d) < 1e17 && d == std::trunc(d) &&
        !(d == 0.0 && std::signbit(d))) {
      return GroupKey(static_cast<int64_t>(d));
    }
  }
  if (v.is_string()) return GroupKey(v.AsString());
  return GroupKey(CanonicalKeyString(v));
}

GroupKey::GroupKey(std::string canonical) {
  if (ParseCanonicalInt(canonical, &int_)) {
    is_int_ = true;
  } else {
    int_ = 0;
    str_ = std::move(canonical);
  }
}

uint64_t GroupKey::Hash() const {
  if (!is_int_) return std::hash<std::string>{}(str_);
  // MurmurHash3's 64-bit finalizer: every input bit reaches the low bits
  // the index probes with.
  uint64_t h = static_cast<uint64_t>(int_);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::string GroupKey::ToString() const {
  return is_int_ ? std::to_string(int_) : str_;
}

void GroupKeyIndex::Clear() {
  if (size_ == 0) return;
  for (Slot& slot : slots_) slot.pos = kEmpty;
  size_ = 0;
}

void GroupKeyIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{kEmpty, 0});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.pos == kEmpty) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].pos != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace stream
}  // namespace usp
