#include "stream/join.h"

#include <algorithm>

#include "stream/batch.h"

namespace usp {
namespace stream {

Tuple ConcatJoinedTuple(const Tuple& left, const Tuple& right) {
  std::vector<Value> values = left.values();
  for (const Value& v : right.values()) values.push_back(v);
  Tuple joined(std::max(left.timestamp(), right.timestamp()),
               std::move(values));
  const LineageView left_lineage = left.lineage();
  const LineageView right_lineage = right.lineage();
  std::vector<TupleId> lineage(left_lineage.begin(), left_lineage.end());
  lineage.insert(lineage.end(), right_lineage.begin(), right_lineage.end());
  joined.SetLineage(std::move(lineage));
  return joined;
}

namespace {

bool TsBefore(const Tuple& t, int64_t ts) { return t.timestamp() < ts; }
bool TsAfter(int64_t ts, const Tuple& t) { return ts < t.timestamp(); }

}  // namespace

void SlidingWindowJoin::Expire() {
  // A buffered left tuple can only match future RIGHT arrivals, which all
  // carry ts >= the right watermark: once that passes l.ts + range the
  // tuple is provably dead, and vice versa. A silent side's watermark
  // keeps advancing the other buffer's expiry — the idle-source fix.
  const auto expire = [this](std::deque<Tuple>* side, int64_t peer_wm) {
    if (peer_wm == INT64_MIN) return;
    const int64_t horizon = peer_wm - range_us_;
    while (!side->empty() && side->front().timestamp() < horizon) {
      const uint64_t bytes = side->front().ApproxBytes();
      buffered_bytes_ -= bytes < buffered_bytes_ ? bytes : buffered_bytes_;
      side->pop_front();
    }
  };
  expire(&left_, right_wm_);
  expire(&right_, left_wm_);
  metrics_.buffered_bytes = buffered_bytes_;
}

void SlidingWindowJoin::ProbeAndBuffer(const Tuple& tuple, bool from_left,
                                       Collector* out) {
  const int64_t ts = tuple.timestamp();
  // Below its own watermark the peer buffer may already have lost this
  // tuple's partners: drop it whole rather than emit a partial pair set.
  if (ts < (from_left ? left_wm_ : right_wm_)) {
    ++metrics_.late_dropped;
    return;
  }
  const std::deque<Tuple>& other = from_left ? right_ : left_;
  for (auto it = std::lower_bound(other.begin(), other.end(),
                                  ts - range_us_, TsBefore);
       it != other.end() && it->timestamp() <= ts + range_us_; ++it) {
    const Tuple& l = from_left ? tuple : *it;
    const Tuple& r = from_left ? *it : tuple;
    std::optional<Tuple> joined = match_(l, r);
    if (joined.has_value()) {
      ++metrics_.tuples_out;
      out->Emit(std::move(*joined));
    }
  }
  // In-order input appends; an out-of-order tuple goes after every
  // buffered tuple with the same timestamp, keeping arrival order.
  std::deque<Tuple>& side = from_left ? left_ : right_;
  const auto pos = side.empty() || side.back().timestamp() <= ts
                       ? side.end()
                       : std::upper_bound(side.begin(), side.end(), ts,
                                          TsAfter);
  // Charge the STORED copy (exact-sized), not the caller's tuple (which
  // may carry excess vector capacity): Expire() refunds by measuring the
  // stored copy, so charging the same object keeps the gauge drift-free.
  buffered_bytes_ += side.insert(pos, tuple)->ApproxBytes();
  metrics_.buffered_bytes = buffered_bytes_;
}

common::Status SlidingWindowJoin::AdvanceWatermark(bool from_left,
                                                   int64_t watermark) {
  common::Stopwatch sw;
  if (from_left) {
    left_wm_ = std::max(left_wm_, watermark);
  } else {
    right_wm_ = std::max(right_wm_, watermark);
  }
  // The join's own progress is the min of its input watermarks (fan-in
  // rule); recorded so the low-watermark surface covers joins too.
  metrics_.low_watermark = std::min(left_wm_, right_wm_);
  Expire();
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return common::Status::OK();
}

common::Status SlidingWindowJoin::PushBatchImpl(const TupleBatch& batch,
                                                bool from_left,
                                                Collector* out) {
  metrics_.tuples_in += batch.size();
  ++metrics_.batches_in;
  common::Stopwatch sw;
  for (const Tuple& t : batch) ProbeAndBuffer(t, from_left, out);
  metrics_.processing_seconds += sw.ElapsedSeconds();
  return common::Status::OK();
}

common::Status SlidingWindowJoin::PushLeftBatch(const TupleBatch& batch,
                                                Collector* out) {
  return PushBatchImpl(batch, /*from_left=*/true, out);
}

common::Status SlidingWindowJoin::PushRightBatch(const TupleBatch& batch,
                                                 Collector* out) {
  return PushBatchImpl(batch, /*from_left=*/false, out);
}

common::Status SlidingWindowJoin::Close() {
  left_.clear();
  right_.clear();
  buffered_bytes_ = 0;
  metrics_.buffered_bytes = 0;
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
