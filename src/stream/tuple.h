// Stream tuples with timestamps, uncertain attributes, and lineage.
//
// Lineage (§5.2) is a set of base-tuple ids recording which independent
// upstream tuples produced this tuple; downstream operators use shared
// lineage to detect correlation (e.g. a join that matched one tuple against
// many). An operator that keeps a TupleArchive can also resolve a lineage
// set back to its inputs for exact result-distribution computation; no
// compiled plan does so today.
//
// Representation: a base tuple's lineage is {id} and is kept as a flag, not
// in heap storage, so building, copying and moving a base tuple allocate
// nothing for lineage. Only derived lineage (SetLineage, MergeLineageFrom)
// lives in a vector. Readers see either form through a LineageView, which
// points into the tuple and is valid only while that tuple lives unchanged.

#ifndef USP_STREAM_TUPLE_H_
#define USP_STREAM_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stream/value.h"

namespace usp {
namespace stream {

/// Process-wide unique tuple identifier.
using TupleId = uint64_t;

/// Allocate the next TupleId: unique across threads and increasing within
/// each thread (threads draw from per-thread blocks, so ids from different
/// threads interleave in no particular order).
TupleId NextTupleId();

/// \brief Read-only view of a tuple's sorted lineage ids (pointer + size).
///
/// Borrowed from the tuple it came from: it dangles once that tuple is
/// destroyed, moved from, or has its lineage replaced.
class LineageView {
 public:
  using value_type = TupleId;
  using iterator = const TupleId*;
  using const_iterator = const TupleId*;

  LineageView(const TupleId* data, size_t size) : data_(data), size_(size) {}

  const TupleId* begin() const { return data_; }
  const TupleId* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TupleId operator[](size_t i) const { return data_[i]; }

  friend bool operator==(LineageView a, LineageView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(LineageView a, const std::vector<TupleId>& b) {
    return a == LineageView(b.data(), b.size());
  }
  friend bool operator==(const std::vector<TupleId>& a, LineageView b) {
    return b == a;
  }

 private:
  const TupleId* data_;
  size_t size_;
};

/// \brief One stream element: timestamp, attribute values, id, lineage.
///
/// Timestamps are microseconds; operators assume per-stream non-decreasing
/// timestamps (the usual DSMS ordering contract).
class Tuple {
 public:
  Tuple() : id_(NextTupleId()), timestamp_(0) {}
  Tuple(int64_t timestamp_us, std::vector<Value> values)
      : id_(NextTupleId()),
        timestamp_(timestamp_us),
        values_(std::move(values)) {}

  TupleId id() const { return id_; }
  int64_t timestamp() const { return timestamp_; }
  void set_timestamp(int64_t ts) { timestamp_ = ts; }

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value& mutable_value(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  /// Appends a value constructed in place from `v`: a Value, or what a
  /// Value is constructed from (an int64_t, a double, ...). Passing the
  /// payload itself builds no temporary Value.
  template <typename T>
  void AppendValue(T&& v) {
    values_.emplace_back(std::forward<T>(v));
  }

  /// Lineage: sorted set of base tuple ids this tuple derives from. A base
  /// tuple's lineage is just its own id.
  LineageView lineage() const {
    return base_lineage_ ? LineageView(&id_, 1)
                         : LineageView(lineage_.data(), lineage_.size());
  }
  /// Mark this tuple as a base tuple (lineage = {id}); allocates nothing.
  void InitBaseLineage() {
    std::vector<TupleId>().swap(lineage_);
    base_lineage_ = true;
  }
  void SetLineage(std::vector<TupleId> ids);
  /// Union of this tuple's lineage with another's.
  void MergeLineageFrom(const Tuple& other);
  /// True if the two tuples share any base tuple (=> correlated results).
  bool SharesLineageWith(const Tuple& other) const;

  /// Rough heap footprint in bytes, for buffered-state accounting
  /// (OperatorMetrics::buffered_bytes): object + value/lineage storage;
  /// string payloads by length, distribution payloads at a flat per-handle
  /// estimate (the pdf itself is a shared immutable handle, so each
  /// buffered reference is charged once at the handle rate).
  size_t ApproxBytes() const;

  std::string ToString() const;

 private:
  TupleId id_;
  int64_t timestamp_;
  std::vector<Value> values_;
  // Derived lineage; empty and unread while base_lineage_ is set.
  std::vector<TupleId> lineage_;
  bool base_lineage_ = false;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_TUPLE_H_
