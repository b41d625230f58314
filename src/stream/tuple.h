// Stream tuples with timestamps, uncertain attributes, and lineage.
//
// Lineage (§5.2) is a set of base-tuple ids recording which independent
// upstream tuples produced this tuple; downstream operators use shared
// lineage to detect correlation (e.g. a join that matched one tuple against
// many). An operator that keeps a TupleArchive can also resolve a lineage
// set back to its inputs for exact result-distribution computation; no
// compiled plan does so today.

#ifndef USP_STREAM_TUPLE_H_
#define USP_STREAM_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "stream/value.h"

namespace usp {
namespace stream {

/// Globally unique tuple identifier (process-wide atomic counter).
using TupleId = uint64_t;

/// Allocate the next TupleId.
TupleId NextTupleId();

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
  void AppendValue(Value v) { values_.push_back(std::move(v)); }

  /// Lineage: sorted set of base tuple ids this tuple derives from. A base
  /// tuple's lineage is just its own id.
  const std::vector<TupleId>& lineage() const { return lineage_; }
  /// Mark this tuple as a base tuple (lineage = {id}).
  void InitBaseLineage() { lineage_ = {id_}; }
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
  std::vector<TupleId> lineage_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_TUPLE_H_
