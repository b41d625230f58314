// Batched tuple transport. A TupleBatch is the only unit of input to an
// operator, a join or an executor (a single tuple travels as a batch of
// one), so per-stage costs (one virtual dispatch, one Stopwatch read, one
// collector) are paid once per batch, not once per tuple.

#ifndef USP_STREAM_BATCH_H_
#define USP_STREAM_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stream/operator.h"
#include "stream/tuple.h"

namespace usp {
namespace stream {

/// \brief An ordered run of tuples moving through the executor together.
///
/// Batches preserve per-stream timestamp order: tuples appear in the order
/// they were appended, and producers append in arrival order, so the DSMS
/// ordering contract holds batch-internally as well as across batches.
class TupleBatch {
 public:
  TupleBatch() = default;
  explicit TupleBatch(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {}

  void Append(Tuple tuple) { tuples_.push_back(std::move(tuple)); }
  void Reserve(size_t n) { tuples_.reserve(n); }
  void Clear() { tuples_.clear(); }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const Tuple& operator[](size_t i) const { return tuples_[i]; }
  Tuple& operator[](size_t i) { return tuples_[i]; }

  std::vector<Tuple>::const_iterator begin() const { return tuples_.begin(); }
  std::vector<Tuple>::const_iterator end() const { return tuples_.end(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  std::vector<Tuple>& mutable_tuples() { return tuples_; }

  /// Append all of `other`'s tuples (moved out of `other`).
  void Concat(TupleBatch&& other);

  /// Max timestamp in the batch, or INT64_MIN when empty; drives the
  /// sharded executor's per-shard watermark.
  int64_t MaxTimestamp() const;

 private:
  std::vector<Tuple> tuples_;
};

/// Collector that appends into a TupleBatch; the executor's glue between an
/// operator's Emit() calls and the downstream edge.
class BatchCollector final : public Collector {
 public:
  explicit BatchCollector(TupleBatch* batch) : batch_(batch) {}
  void Emit(Tuple tuple) override { batch_->Append(std::move(tuple)); }

 private:
  TupleBatch* batch_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_BATCH_H_
